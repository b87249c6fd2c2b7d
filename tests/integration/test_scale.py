"""Scale smoke tests: the largest configurations the suite runs.

The paper's protocols are proved for all n; these tests push the
implementation past the toy sizes used elsewhere.  The largest EIG
decision the suite computes is n = 16, t = 5: 5,765,760 distinct relay
chains, swept on the dense path over hash-consed arrays along
extension-major chain tables (``repro.arrays.flat.ChainTopology``, one
int64 pick a chain), each level's int8 votes tallied in place; a
``run-ba --n 16 --t 5`` process peaks near 170 MB resident
(docs/perf.md, "The EIG sweep").  Both sizes run under
``EquivocatingAdversary`` and ``StaleCoreAdversary``
(``tests/adversary/compact_attacks.py``), under which the
dominant-child walk stops and the decision reaches the sweep; n = 13,
t = 4 sweeps 154,440 chains.  The full-information state itself is a
handful of interned nodes at either size: the sweep is the cost.
"""

import pytest

from repro.adversary import CollusionAdversary, EquivocatingAdversary
from repro.compact.byzantine_agreement import (
    compact_ba_rounds,
    run_compact_byzantine_agreement,
)
from repro.types import SystemConfig

from tests.adversary.compact_attacks import StaleCoreAdversary
from tests.conftest import assert_agreement_and_validity


def _decides_on_dense_path(t, adversary):
    """Compact BA at n = 3t + 1, k = 1: agreement, validity, and the
    decision in exactly Corollary 10's round count."""
    config = SystemConfig(n=3 * t + 1, t=t)
    inputs = {p: p % 2 for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=1, adversary=adversary,
    )
    assert_agreement_and_validity(result, inputs)
    assert result.rounds == compact_ba_rounds(t, 1) == config.n


class TestNTen:
    def test_compact_ba_n10_t3(self):
        config = SystemConfig(n=10, t=3)
        inputs = {p: p % 2 for p in config.process_ids}
        result = run_compact_byzantine_agreement(
            config,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=EquivocatingAdversary([1, 2, 3], 0, 1),
        )
        assert_agreement_and_validity(result, inputs)
        assert result.rounds == compact_ba_rounds(3, 1)

    def test_compact_ba_n10_collusion_k2(self):
        config = SystemConfig(n=10, t=3)
        inputs = {p: p % 2 for p in config.process_ids}
        result = run_compact_byzantine_agreement(
            config,
            inputs,
            value_alphabet=[0, 1],
            k=2,
            adversary=CollusionAdversary([4, 5, 6]),
        )
        assert_agreement_and_validity(result, inputs)


class TestNThirteen:
    @pytest.mark.parametrize("make_adversary", [
        lambda faulty: EquivocatingAdversary(faulty, 0, 1),
        StaleCoreAdversary,
    ], ids=["EquivocatingAdversary", "StaleCoreAdversary"])
    def test_compact_ba_n13_t4_dense(self, make_adversary):
        """t = 4 over 13 processors: each decision sweeps 154,440
        chains of a FULL_STATE that interns to a handful of nodes."""
        _decides_on_dense_path(4, make_adversary([1, 2, 3, 4]))


class TestNSixteen:
    def test_compact_ba_n16_t5_dense(self):
        """t = 5 over 16 processors: each decision sweeps 5,765,760
        chains, so the chain tables' build cost shows here — about a
        second and 300 MB when built in closed form, against tens of
        seconds and 1.5 GB for a tuple enumeration of the chains."""
        _decides_on_dense_path(5, EquivocatingAdversary([1, 2, 3, 4, 5], 0, 1))

    def test_compact_ba_n16_t5_dense_stale_core(self):
        """The same sweep when the faulty processors replay stale
        COREs, which correct receivers reject and substitute."""
        _decides_on_dense_path(5, StaleCoreAdversary([1, 2, 3, 4, 5]))
