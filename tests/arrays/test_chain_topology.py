"""The EIG sweep's chain tables equal the tuple enumeration they replace.

:class:`repro.arrays.flat.ChainTopology` builds its ``pick`` and
``suffix`` columns level by level by index arithmetic; the plain model
in ``chain_reference`` enumerates the chains as tuples.  Every column
must match it in value and dtype, so the sweep that gathers over them
is the one the decisions, bit counts and goldens were recorded with.
"""

import math

import numpy as np
import pytest

from repro.arrays.flat import ChainTopology, chain_topology
from repro.errors import ConfigurationError

from tests.arrays.chain_reference import chain_tables

GRID = [
    (n, depth) for n in range(1, 9) for depth in range(1, n + 1)
] + [(10, 4), (13, 5)]


@pytest.mark.parametrize("n,depth", GRID)
def test_tables_equal_the_tuple_enumeration(n, depth):
    picks, suffixes, level_sizes = chain_tables(n, depth)
    topology = ChainTopology(n, depth)
    assert topology.level_sizes == level_sizes
    assert level_sizes == [math.perm(n, level) for level in range(depth + 1)]
    built_columns = topology.pick + topology.suffix
    assert len(built_columns) == len(picks + suffixes) == 2 * depth
    for built, expected in zip(built_columns, picks + suffixes):
        assert built.dtype == expected.dtype == np.int64
        assert np.array_equal(built, expected)


def test_depth_zero_has_only_the_empty_chain():
    topology = ChainTopology(3, 0)
    assert topology.pick == topology.suffix == []
    assert topology.level_sizes == [1]


@pytest.mark.parametrize("n", [1, 4, 13])
def test_chains_longer_than_the_label_set_are_refused(n):
    with pytest.raises(ConfigurationError):
        chain_topology(n, n + 1)
