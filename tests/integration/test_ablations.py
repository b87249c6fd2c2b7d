"""Ablations: weaken a design choice, observe the predicted failure.

Positive tests show the protocols work; these negative controls show
*why* each quorum in Protocol 2 is what it is, by lowering one and
exhibiting a concrete adversarial execution that breaks exactly the
property the paper's corresponding lemma guarantees.
"""

from repro.adversary import EquivocatingAdversary
from repro.avalanche.conditions import check_avalanche_condition
from repro.avalanche.protocol import Thresholds, avalanche_factory
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, is_bottom


class TestRound1QuorumIsLoadBearing:
    """Lemma 3 (at most one persistent value) needs the round-1 adopt
    quorum to be 2t + 1 at n = 3t + 1.  Lower it to t + 1 and a single
    equivocator manufactures two persistent values."""

    def test_lowered_quorum_breaks_lemma3(self, config4):
        weak = Thresholds(
            round1_adopt=config4.t + 1,  # should be 2t + 1
            later_adopt=config4.t + 1,
            decide=2 * config4.t + 1,
        )
        inputs = {1: "a", 2: "a", 3: "b", 4: "b"}
        result = run_protocol(
            avalanche_factory(thresholds=weak),
            config4,
            inputs,
            adversary=EquivocatingAdversary([1], "a", "b"),
            run_full_rounds=1,
            record_trace=True,
        )
        round1_vals = {
            snapshot["val"]
            for snapshot in result.trace.snapshots_in_round(1).values()
            if not is_bottom(snapshot["val"])
        }
        assert len(round1_vals) == 2, (
            "expected the weakened quorum to admit two persistent "
            f"values, got {round1_vals}"
        )

    def test_paper_quorum_preserves_lemma3_same_scenario(self, config4):
        """Control: the identical attack against the paper's quorum."""
        inputs = {1: "a", 2: "a", 3: "b", 4: "b"}
        result = run_protocol(
            avalanche_factory(),  # standard 2t + 1
            config4,
            inputs,
            adversary=EquivocatingAdversary([1], "a", "b"),
            run_full_rounds=1,
            record_trace=True,
        )
        round1_vals = {
            snapshot["val"]
            for snapshot in result.trace.snapshots_in_round(1).values()
            if not is_bottom(snapshot["val"])
        }
        assert len(round1_vals) <= 1


class TestDecideQuorumIsLoadBearing:
    """The decide quorum must be 2t + 1: decisions then rest on t + 1
    correct voters, which forces the avalanche.  Lower it to t + 1 and
    an equivocator splits the correct processors' decisions."""

    def attack(self, thresholds, config):
        inputs = {1: "a", 2: "a", 3: "b", 4: "b"}
        return run_protocol(
            avalanche_factory(thresholds=thresholds),
            config,
            inputs,
            adversary=EquivocatingAdversary([1], "a", "b"),
            run_full_rounds=4,
        )

    def test_lowered_quorum_splits_decisions(self, config4):
        weak = Thresholds(
            round1_adopt=config4.t + 1,
            later_adopt=config4.t + 1,
            decide=config4.t + 1,  # should be 2t + 1
        )
        result = self.attack(weak, config4)
        decided = {
            value
            for value in result.decisions.values()
            if not is_bottom(value)
        }
        violations = check_avalanche_condition(
            result.decisions,
            result.decision_rounds,
            sorted(result.processes),
            result.rounds,
        )
        assert len(decided) == 2 or violations, (
            "expected the weakened decide quorum to break the "
            "avalanche condition"
        )

    def test_paper_quorum_survives_same_attack(self, config4):
        result = self.attack(None, config4)
        violations = check_avalanche_condition(
            result.decisions,
            result.decision_rounds,
            sorted(result.processes),
            result.rounds,
        )
        assert not violations


class TestAdoptQuorumIsLoadBearing:
    """The later-round adopt quorum must exceed t, or the adversary
    alone can plant a value no correct processor ever held — breaking
    plausibility (Lemma 4's base case)."""

    def test_adopt_quorum_of_t_admits_planted_values(self, config7):
        weak = Thresholds(
            round1_adopt=2 * config7.t + 1,
            later_adopt=config7.t,  # should be t + 1
            decide=2 * config7.t + 1,
        )
        # No correct processor ever inputs "evil"; the two faulty
        # processors alone reach the weakened t = 2 adopt quorum.
        inputs = {p: BOTTOM for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(thresholds=weak),
            config7,
            inputs,
            adversary=EquivocatingAdversary([6, 7], "evil", "evil"),
            run_full_rounds=3,
            record_trace=True,
        )
        planted = any(
            snapshot["val"] == "evil"
            for round_number in result.trace.rounds
            for snapshot in result.trace.snapshots_in_round(
                round_number
            ).values()
        )
        assert planted, "expected the weakened adopt quorum to admit a planted value"

    def test_paper_quorum_rejects_planted_values(self, config7):
        inputs = {p: BOTTOM for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=EquivocatingAdversary([6, 7], "evil", "evil"),
            run_full_rounds=3,
            record_trace=True,
        )
        for round_number in result.trace.rounds:
            for snapshot in result.trace.snapshots_in_round(
                round_number
            ).values():
                assert snapshot["val"] != "evil"
