"""The exact fault-free compact cost model matches the meter bit-for-bit.

This pins the protocol's communication structure completely: any
change to what Protocol 3 sends, when, or how the sizer charges it
breaks these equalities.
"""

import pytest

from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.types import SystemConfig

from tests.analysis.exact_compact_model import compact_exact_bits_fault_free

# A value alphabet disjoint from processor indices, as the model
# documents (int values colliding with ids 1..n would be charged index
# bits by the sizer).
ALPHABET = ["a", "b"]


def measured_bits(n, t, k, overhead):
    config = SystemConfig(n=n, t=t)
    inputs = {p: ALPHABET[p % 2] for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=ALPHABET, k=k, overhead=overhead
    )
    return result.metrics.total_bits


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_standard_overhead_matches(n, t, k):
    assert measured_bits(n, t, k, overhead=2) == compact_exact_bits_fault_free(
        n, t, k, len(ALPHABET), overhead=2
    )


@pytest.mark.parametrize("n,t", [(5, 1), (9, 2)])
@pytest.mark.parametrize("k", [1, 2])
def test_fast_overhead_matches(n, t, k):
    assert measured_bits(n, t, k, overhead=1) == compact_exact_bits_fault_free(
        n, t, k, len(ALPHABET), overhead=1
    )


def test_model_reflects_single_block_shortcut():
    """k >= t + 1 fits the whole simulation in one block: no
    rebroadcast, no avalanche, cost collapses to the progress
    exchanges only (this is why eps can be 'bought' so cheaply at
    small t)."""
    with_avalanche = compact_exact_bits_fault_free(7, 2, 2, 2)
    single_block = compact_exact_bits_fault_free(7, 2, 3, 2)
    assert single_block < with_avalanche


def test_model_monotone_in_alphabet():
    assert compact_exact_bits_fault_free(
        7, 2, 1, 1024
    ) > compact_exact_bits_fault_free(7, 2, 1, 2)
