"""Per-round communication bounds of the compact protocol.

Section 5.6's accounting: in the non-avalanche portion each processor
broadcasts one message of size ``O(n^k log |V|)`` per round; in the
avalanche portion at most ``n`` messages of that size per round.
These tests measure every round of live executions against explicit
versions of those bounds — the property that makes the protocol
"compact" at all.
"""

import pytest

from repro.adversary import CollusionAdversary, EquivocatingAdversary
from repro.arrays.encoding import HEADER_BITS, bits_for_alphabet
from repro.compact.byzantine_agreement import (
    compact_ba_rounds,
    run_compact_byzantine_agreement,
)


def per_message_bound(n: int, k: int, value_alphabet_size: int) -> int:
    """Explicit size bound for one CORE-sized array: a full depth-k
    array of the costlier leaf type, plus framing."""
    leaf_bits = max(
        bits_for_alphabet(value_alphabet_size), bits_for_alphabet(n)
    )
    leaves = n**k
    nodes = sum(n**level for level in range(k)) if k else 0
    return leaves * leaf_bits + nodes * HEADER_BITS


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "adversary_maker",
    [lambda f: EquivocatingAdversary(f, 0, 1), CollusionAdversary],
)
def test_per_round_bits_within_polynomial_budget(config7, k, adversary_maker):
    """Every round's total traffic stays within the Section 5.6
    budget: n^2 links x (1 main + n avalanche components) x the
    per-message bound."""
    inputs = {p: p % 2 for p in config7.process_ids}
    result = run_compact_byzantine_agreement(
        config7,
        inputs,
        value_alphabet=[0, 1],
        k=k,
        adversary=adversary_maker([2, 6]),
    )
    n = config7.n
    message_bound = per_message_bound(n, k, 2)
    round_budget = n * n * (1 + n) * message_bound
    for round_number, bits in result.metrics.bits_by_round():
        assert bits <= round_budget, (
            f"round {round_number}: {bits} bits exceeds budget "
            f"{round_budget}"
        )


def test_total_bits_scale_with_round_bound(config7):
    """Total traffic within rounds x budget — the O(t n^(k+3) log|V|)
    shape with our explicit constants."""
    inputs = {p: p % 2 for p in config7.process_ids}
    k = 1
    result = run_compact_byzantine_agreement(
        config7, inputs, value_alphabet=[0, 1], k=k,
        adversary=CollusionAdversary([1, 7]),
    )
    n = config7.n
    budget = (
        compact_ba_rounds(config7.t, k)
        * n * n * (1 + n)
        * per_message_bound(n, k, 2)
    )
    assert result.metrics.total_bits <= budget


def test_coding_keeps_settled_batches_free(config7):
    """Once every avalanche instance of a boundary has settled, its
    votes are all null: late rounds must not keep paying for old
    boundaries.  With k = 1, t = 2 the run spans three boundaries —
    the last round's bits must stay within a fresh-boundary budget
    rather than accumulating all three."""
    inputs = {p: p % 2 for p in config7.process_ids}
    result = run_compact_byzantine_agreement(
        config7, inputs, value_alphabet=[0, 1], k=1,
        adversary=EquivocatingAdversary([3, 6], 0, 1),
    )
    n = config7.n
    one_boundary_budget = n * n * (1 + n) * per_message_bound(n, 1, 2)
    last_round, last_bits = result.metrics.bits_by_round()[-1]
    assert last_bits <= one_boundary_budget
