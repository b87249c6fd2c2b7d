"""Test-only exact model of a fault-free Corollary 10 execution's traffic.

A bit-for-bit prediction of what the meter records, derived from
Protocol 3's structure and the sizer's encoding
(:mod:`repro.arrays.encoding`).  ``tests/analysis/test_exact_compact_model.py``
holds the meter to it.  ROADMAP item 8(b) moves it back under
``src/repro/analysis/`` when a run's budget record calls it.
"""

from repro.arrays.encoding import HEADER_BITS, bits_for_alphabet
from repro.core.rounds import BlockSchedule


def _core_bits(n: int, depth: int, leaf_bits: int) -> int:
    """Exact size of one depth-``depth`` CORE array (``n >= 2``)."""
    tuple_nodes = (n**depth - 1) // (n - 1)
    return n**depth * leaf_bits + tuple_nodes * HEADER_BITS


def compact_exact_bits_fault_free(
    n: int,
    t: int,
    k: int,
    value_alphabet_size: int,
    overhead: int = 2,
) -> int:
    """Exact total traffic of a *fault-free* Corollary 10 execution.

    * **main components** — round 1 broadcasts a scalar value; phases
      ``2..k`` broadcast the depth-``phase - 1`` CORE; phase ``k + 1``
      re-broadcasts the depth-``k`` CORE; rebase rounds and (standard
      overhead) phase ``k + 2`` carry none.  Block-1 COREs have value
      leaves, later blocks index leaves;
    * **avalanche components** — fault-free, every instance is fed a
      unanimous input, so each processor's vote is non-null exactly
      once (the batch's first round: ``n`` votes of one end-of-block
      CORE each) and the null coding zeroes everything after.

    Assumes the value alphabet is disjoint from the integers
    ``1..n`` (e.g. strings), so value leaves are never mistaken for
    index leaves by the sizer.  Everything is multiplied by ``n^2``
    ordered links.
    """
    value_bits = bits_for_alphabet(value_alphabet_size)
    index_bits = bits_for_alphabet(n)
    schedule = BlockSchedule(k, overhead)
    total_rounds = schedule.actual_rounds_for(t + 1)

    def block_leaf_bits(block: int) -> int:
        return value_bits if block == 1 else index_bits

    total = 0
    for round_number in range(1, total_rounds + 1):
        phase = schedule.phase(round_number)
        block = schedule.block(round_number)
        # Main component.
        if round_number == 1:
            total += n * n * value_bits
        elif 2 <= phase <= k + 1:
            depth = min(phase - 1, k)
            total += n * n * _core_bits(n, depth, block_leaf_bits(block))
        # Avalanche first-round votes: the batch for boundary
        # ``block + 1`` is created at phase k + 1 and votes in the
        # next round.  Detect that next round directly.
        if schedule.is_agreement_start_round(round_number):
            # Votes carry the end-of-previous-block CORE (depth k).
            vote_block = (
                block if phase != 1 else block - 1
            )  # overhead=1 folds the vote round into the next block
            total += n * n * n * _core_bits(
                n, k, block_leaf_bits(vote_block)
            )
    return total
