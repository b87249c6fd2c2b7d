"""Tests for Protocol 2: the three conditions, lemmas, thresholds."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.avalanche.conditions import (
    check_avalanche_condition,
    check_consensus_condition,
    check_plausibility_condition,
)
from repro.avalanche.protocol import (
    AvalancheInstance,
    avalanche_factory,
    standard_thresholds,
)
from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig, is_bottom

from tests.conftest import byzantine_adversaries


def run_avalanche(config, inputs, adversary=None, rounds=8, seed=0):
    return run_protocol(
        avalanche_factory(),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=rounds,
        seed=seed,
    )


def assert_conditions(result, inputs, consensus_deadline=2):
    correct = sorted(result.processes)
    violations = (
        check_avalanche_condition(
            result.decisions, result.decision_rounds, correct, result.rounds
        )
        + check_consensus_condition(
            result.decisions,
            result.decision_rounds,
            inputs,
            correct,
            result.rounds,
            deadline=consensus_deadline,
        )
        + check_plausibility_condition(result.decisions, inputs, correct)
    )
    assert not violations, violations


class TestThresholds:
    def test_tight_case_matches_paper(self):
        thresholds = standard_thresholds(SystemConfig(n=7, t=2))
        assert thresholds.round1_adopt == 2 * 2 + 1  # 2t+1 at n=3t+1
        assert thresholds.later_adopt == 3
        assert thresholds.decide == 5
        assert thresholds.round1_decide is None

    def test_generalised_round1_quorum(self):
        # n=10, t=2: floor((10+2)/2)+1 = 7 > 2t+1 = 5.
        thresholds = standard_thresholds(SystemConfig(n=10, t=2))
        assert thresholds.round1_adopt == 7

    def test_requires_byzantine_quorum(self):
        with pytest.raises(ConfigurationError):
            standard_thresholds(SystemConfig(n=6, t=2))


class TestFaultFree:
    def test_unanimous_decides_in_two_rounds(self, config7):
        inputs = {p: "v" for p in config7.process_ids}
        result = run_avalanche(config7, inputs, rounds=3)
        assert all(d == "v" for d in result.decisions.values())
        assert all(r == 2 for r in result.decision_rounds.values())

    def test_near_unanimous_still_decides(self, config7):
        inputs = {p: ("w" if p == 1 else "v") for p in config7.process_ids}
        result = run_avalanche(config7, inputs, rounds=4)
        assert set(result.decisions.values()) == {"v"}

    def test_split_inputs_may_not_decide(self, config4):
        # 2-2 split at n=4: no value reaches the 2t+1 = 3 quorum in
        # round 1 if... actually 2 votes < 3, so nothing persists and
        # the protocol never decides — legal for avalanche agreement.
        inputs = {1: "a", 2: "a", 3: "b", 4: "b"}
        result = run_avalanche(config4, inputs, rounds=6)
        assert all(is_bottom(d) for d in result.decisions.values())

    def test_no_input_processors(self, config7):
        inputs = {p: ("v" if p <= 5 else BOTTOM) for p in config7.process_ids}
        result = run_avalanche(config7, inputs, rounds=4)
        # 5 votes for v reach 2t+1 = 5: v persists and decides.
        assert set(result.decisions.values()) == {"v"}
        assert_conditions(result, inputs)


class TestConditionsUnderAdversaries:
    @pytest.mark.parametrize("pattern", [0, 1])
    @pytest.mark.parametrize("faulty", [(1, 2), (3, 6), (6, 7)])
    def test_all_conditions_hold(self, config7, pattern, faulty):
        inputs = {
            p: ("v" if (p + pattern) % 3 else "w") for p in config7.process_ids
        }
        for adversary in byzantine_adversaries(list(faulty), values=("v", "w")):
            result = run_avalanche(
                config7, inputs, adversary=adversary, rounds=8, seed=pattern
            )
            assert_conditions(result, inputs)

    def test_unanimous_correct_beats_any_adversary(self, config7):
        inputs = {p: "v" for p in config7.process_ids}
        for adversary in byzantine_adversaries([2, 5], values=("v", "w")):
            result = run_avalanche(config7, inputs, adversary=adversary, rounds=4)
            assert set(result.decisions.values()) == {"v"}
            assert all(r <= 2 for r in result.decision_rounds.values())

    def test_plausibility_under_value_injection(self, config7):
        """The adversary floods a value no correct processor holds."""
        from repro.adversary import RandomGarbageAdversary

        inputs = {p: "v" if p <= 5 else "evil" for p in config7.process_ids}
        adversary = RandomGarbageAdversary([6, 7], palette=["evil"])
        result = run_avalanche(config7, inputs, adversary=adversary, rounds=8)
        for decision in result.decisions.values():
            assert is_bottom(decision) or decision == "v"


class TestLemmas:
    """Lemmas 3 and 4 as runtime-checkable statements."""

    def test_lemma3_at_most_one_persistent_value(self, config7):
        from repro.adversary import EquivocatingAdversary

        inputs = {p: ("v" if p % 2 else "w") for p in config7.process_ids}
        adversary = EquivocatingAdversary([3, 4], "v", "w")
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=adversary,
            run_full_rounds=1,
            record_trace=True,
        )
        round1_vals = {
            snapshot["val"]
            for snapshot in result.trace.snapshots_in_round(1).values()
            if not is_bottom(snapshot["val"])
        }
        assert len(round1_vals) <= 1

    def test_lemma4_vals_stay_on_persistent_value(self, config7):
        from repro.adversary import VoteSplitterAdversary

        inputs = {p: ("v" if p <= 5 else "w") for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=VoteSplitterAdversary([6, 7]),
            run_full_rounds=6,
            record_trace=True,
        )
        persistent = {
            snapshot["val"]
            for snapshot in result.trace.snapshots_in_round(1).values()
            if not is_bottom(snapshot["val"])
        }
        for round_number in result.trace.rounds:
            for snapshot in result.trace.snapshots_in_round(round_number).values():
                value = snapshot["val"]
                assert is_bottom(value) or value in persistent


class TestInstanceAPI:
    def test_vote_slot_count_enforced(self, config4):
        instance = AvalancheInstance(config4, input_value="v")
        with pytest.raises(ConfigurationError):
            instance.step(["v"] * 3)

    def test_malformed_votes_discarded(self, config4):
        instance = AvalancheInstance(config4, input_value="v")
        instance.step([("two", "values"), {"un": "hashable"}, BOTTOM, "v"])
        # Only the single legal vote counted; below every quorum.
        assert is_bottom(instance.val)

    def test_value_ok_hook(self, config4):
        instance = AvalancheInstance(
            config4, input_value="v", value_ok=lambda value: value == "v"
        )
        instance.step(["x", "x", "x", "x"])
        assert is_bottom(instance.val)  # all votes rejected by the hook

    def test_keeps_participating_after_decision(self, config4):
        instance = AvalancheInstance(config4, input_value="v")
        instance.step(["v"] * 4)
        instance.step(["v"] * 4)
        assert instance.has_decided()
        assert instance.message() == "v"  # still voting
        instance.step(["v"] * 4)  # no error, no change
        assert instance.decision == "v"
        assert instance.decision_round == 2

    def test_deterministic_tie_break(self, config4):
        left = AvalancheInstance(config4, input_value="a")
        right = AvalancheInstance(config4, input_value="a")
        votes = ["a", "a", "b", "b"]
        left.step(list(votes))
        right.step(list(votes))
        assert left.val == right.val


@settings(max_examples=30, deadline=None)
@given(
    faulty=st.sets(st.integers(1, 7), min_size=1, max_size=2),
    pattern=st.integers(0, 5),
    seed=st.integers(0, 3),
    strategy_index=st.integers(0, 5),
)
def test_conditions_property(faulty, pattern, seed, strategy_index):
    """Property sweep: conditions hold for random fault sets/inputs."""
    config = SystemConfig(n=7, t=2)
    inputs = {
        p: ("v" if (p * (pattern + 1)) % 4 else "w") for p in config.process_ids
    }
    adversary = byzantine_adversaries(sorted(faulty), values=("v", "w"))[
        strategy_index
    ]
    result = run_avalanche(config, inputs, adversary=adversary, rounds=8, seed=seed)
    assert_conditions(result, inputs)
