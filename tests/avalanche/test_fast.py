"""Tests for the fast avalanche variant (n >= 4t+1, 1-round consensus)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.avalanche.conditions import (
    check_avalanche_condition,
    check_consensus_condition,
    check_plausibility_condition,
)
from repro.avalanche.fast import fast_thresholds
from repro.avalanche.protocol import AvalancheInstance, avalanche_factory
from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig

from tests.conftest import byzantine_adversaries


def run_fast(config, inputs, adversary=None, rounds=8, seed=0):
    return run_protocol(
        avalanche_factory(thresholds=fast_thresholds(config)),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=rounds,
        seed=seed,
    )


class TestThresholds:
    def test_boundary_case(self):
        thresholds = fast_thresholds(SystemConfig(n=9, t=2))
        assert thresholds.round1_adopt == 5  # n - 2t = 2t+1 at n=4t+1
        assert thresholds.decide == 7  # n - t = 3t+1
        assert thresholds.round1_decide == 7
        assert thresholds.later_adopt == 3

    def test_requires_fast_quorum(self):
        with pytest.raises(ConfigurationError):
            fast_thresholds(SystemConfig(n=8, t=2))

    def test_larger_n(self):
        thresholds = fast_thresholds(SystemConfig(n=12, t=2))
        assert thresholds.round1_adopt == 8
        assert thresholds.decide == 10


class TestOneRoundConsensus:
    def test_unanimous_decides_in_round_one(self, config9):
        inputs = {p: "v" for p in config9.process_ids}
        result = run_fast(config9, inputs, rounds=2)
        assert set(result.decisions.values()) == {"v"}
        assert all(r == 1 for r in result.decision_rounds.values())

    def test_unanimous_correct_with_faults_decides_by_round_two(self, config9):
        inputs = {p: "v" for p in config9.process_ids}
        for adversary in byzantine_adversaries([3, 8], values=("v", "w")):
            result = run_fast(config9, inputs, adversary=adversary, rounds=3)
            assert set(result.decisions.values()) == {"v"}
            assert all(r <= 2 for r in result.decision_rounds.values())


class TestConditions:
    @pytest.mark.parametrize("faulty", [(1, 2), (4, 9), (5, 6)])
    @pytest.mark.parametrize("pattern", [0, 1, 2])
    def test_all_conditions_hold(self, config9, faulty, pattern):
        inputs = {
            p: ("v" if (p + pattern) % 3 else "w") for p in config9.process_ids
        }
        for adversary in byzantine_adversaries(list(faulty), values=("v", "w")):
            result = run_fast(config9, inputs, adversary=adversary, rounds=8)
            correct = sorted(result.processes)
            violations = (
                check_avalanche_condition(
                    result.decisions,
                    result.decision_rounds,
                    correct,
                    result.rounds,
                )
                + check_consensus_condition(
                    result.decisions,
                    result.decision_rounds,
                    inputs,
                    correct,
                    result.rounds,
                    deadline=1,  # the strengthened condition
                )
                + check_plausibility_condition(
                    result.decisions, inputs, correct
                )
            )
            assert not violations, violations


class TestInstance:
    def test_fast_instance_preconfigured(self, config9):
        instance = AvalancheInstance(
            config9, input_value="v", thresholds=fast_thresholds(config9)
        )
        assert instance.thresholds == fast_thresholds(config9)

    def test_round_one_decision_path(self, config9):
        instance = AvalancheInstance(
            config9, input_value="v", thresholds=fast_thresholds(config9)
        )
        instance.step(["v"] * 9)
        assert instance.has_decided()
        assert instance.decision_round == 1


@settings(max_examples=25, deadline=None)
@given(
    faulty=st.sets(st.integers(1, 9), min_size=1, max_size=2),
    pattern=st.integers(0, 4),
    strategy_index=st.integers(0, 5),
)
def test_fast_conditions_property(faulty, pattern, strategy_index):
    config = SystemConfig(n=9, t=2)
    inputs = {
        p: ("v" if (p * (pattern + 2)) % 4 else "w") for p in config.process_ids
    }
    adversary = byzantine_adversaries(sorted(faulty), values=("v", "w"))[
        strategy_index
    ]
    result = run_fast(config, inputs, adversary=adversary, rounds=8)
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
            deadline=1,
        )
        + check_plausibility_condition(result.decisions, inputs, correct)
    )
    assert not violations, violations
