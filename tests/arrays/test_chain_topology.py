"""The EIG sweep's chain tables equal a tuple enumeration of their order.

:class:`repro.arrays.flat.ChainTopology` builds its ``pick`` columns
level by level by index arithmetic; the plain model in
``chain_reference`` lists the chains as tuples, extension-major, from
the definition.  Every column must match it in value and dtype, so the
sweep that gathers over them reads each chain where the model puts it.
"""

import functools
import math

import numpy as np
import pytest

from repro.agreement.eig_agreement import eig_agreement_factory
from repro.arrays import flat
from repro.arrays.flat import ChainTopology, chain_topology
from repro.cli import main
from repro.compact.byzantine_agreement import compact_ba_factory
from repro.errors import ConfigurationError
from repro.types import SystemConfig

from tests.arrays.chain_reference import chain_levels, chain_tables

GRID = [
    (n, depth) for n in range(1, 9) for depth in range(1, n + 1)
] + [(10, 4), (13, 5)]


@pytest.mark.parametrize("n,depth", GRID)
def test_tables_equal_the_tuple_enumeration(n, depth):
    picks, level_sizes = chain_tables(n, depth)
    topology = ChainTopology(n, depth)
    assert topology.level_sizes == level_sizes
    assert level_sizes == [math.perm(n, level) for level in range(depth + 1)]
    assert len(topology.pick) == len(picks) == depth
    for built, expected in zip(topology.pick, picks):
        assert built.dtype == expected.dtype == np.int64
        assert np.array_equal(built, expected)


def test_each_column_holds_one_chains_extensions():
    """Reshaped to ``(n - l + 1, P(l - 1))``, level ``l``'s column ``j``
    is the one-relayer extensions of level ``l - 1``'s chain ``j``."""
    n, depth = 5, 3
    levels = chain_levels(n, depth)
    for level in range(1, depth + 1):
        previous = levels[level - 1]
        for j, chain in enumerate(previous):
            column = levels[level][j::len(previous)]
            assert column == [
                (q,) + chain for q in range(1, n + 1) if q not in chain
            ]


def test_depth_zero_has_only_the_empty_chain():
    topology = ChainTopology(3, 0)
    assert topology.pick == []
    assert topology.level_sizes == [1]


@pytest.mark.parametrize("n", [1, 4, 13])
def test_chains_longer_than_the_label_set_are_refused(n):
    with pytest.raises(ConfigurationError):
        chain_topology(n, n + 1)


class TestRefuseBeforeAllocating:
    """A system whose EIG decision would sweep more chains than
    ``MAX_SWEEP_CHAINS`` is refused before a run, building nothing."""

    def test_the_cap_sits_between_n16_t5_and_n19_t6(self):
        assert math.perm(16, 6) == 5_765_760 <= flat.MAX_SWEEP_CHAINS
        assert math.perm(19, 7) == 253_955_520 > flat.MAX_SWEEP_CHAINS

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def build(n, depth):
            raise AssertionError(f"built the ({n}, {depth}) chain tables")

        monkeypatch.setattr(flat, "ChainTopology", build)

    FACTORIES = [
        eig_agreement_factory,
        functools.partial(compact_ba_factory, k=1),
    ]

    @pytest.mark.parametrize("factory", FACTORIES, ids=["eig", "compact"])
    def test_factories_refuse_n19_t6(self, factory, no_tables):
        with pytest.raises(ConfigurationError) as refused:
            factory(SystemConfig(n=19, t=6), [0, 1], default=0)
        message = str(refused.value)
        assert "\n" not in message
        assert message.startswith("n=19, t=6: ")
        assert "253,955,520 relay chains" in message

    @pytest.mark.parametrize("factory", FACTORIES, ids=["eig", "compact"])
    def test_factories_accept_n16_t5(self, factory, no_tables):
        factory(SystemConfig(n=16, t=5), [0, 1], default=0)

    def test_chain_topology_refuses_too(self, no_tables):
        with pytest.raises(ConfigurationError, match="253,955,520"):
            chain_topology(19, 7)

    def test_run_ba_exits_2_with_one_line(self, no_tables, capsys):
        assert main(["run-ba", "--t", "6"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: n=19, t=6: ")
        assert out.count("\n") == 1
