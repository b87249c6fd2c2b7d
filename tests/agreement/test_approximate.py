"""Tests for synchronous approximate agreement."""

import math

import pytest

from repro.adversary import (
    EquivocatingAdversary,
    MalformedArrayAdversary,
    SilentAdversary,
)
from repro.agreement.approximate import (
    ApproximateAgreementAutomaton,
    approximate_factory,
)
from repro.core.automaton import automaton_factory
from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM


FLOAT_INPUTS = {1: 0.0, 2: 10.0, 3: 5.0, 4: 2.0, 5: 8.0, 6: 1.0, 7: 9.0}


def rounds_for_precision(initial_range, epsilon):
    """Rounds of halving needed to shrink ``initial_range`` to ``epsilon``."""
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    if initial_range <= epsilon:
        return 1
    return max(1, math.ceil(math.log2(initial_range / epsilon)))


class TestRoundsForPrecision:
    def test_halving_arithmetic(self):
        assert rounds_for_precision(8.0, 1.0) == 3
        assert rounds_for_precision(10.0, 1.0) == 4

    def test_already_converged_needs_one_round(self):
        assert rounds_for_precision(0.5, 1.0) == 1

    def test_epsilon_positive(self):
        with pytest.raises(ConfigurationError):
            rounds_for_precision(1.0, 0.0)


class TestFloatProtocol:
    def test_epsilon_closeness(self, config7):
        rounds = rounds_for_precision(10.0, 0.25)
        result = run_protocol(
            approximate_factory(rounds=rounds),
            config7,
            FLOAT_INPUTS,
            max_rounds=rounds + 1,
        )
        values = list(result.decisions.values())
        assert max(values) - min(values) <= 0.25

    def test_range_validity_under_extreme_adversary(self, config7):
        rounds = rounds_for_precision(10.0, 0.5)
        result = run_protocol(
            approximate_factory(rounds=rounds),
            config7,
            FLOAT_INPUTS,
            adversary=EquivocatingAdversary([2, 5], -1e9, 1e9),
            max_rounds=rounds + 1,
        )
        correct_inputs = [
            FLOAT_INPUTS[p] for p in config7.process_ids if p not in (2, 5)
        ]
        low, high = min(correct_inputs), max(correct_inputs)
        for value in result.decisions.values():
            assert low <= value <= high

    def test_convergence_factor_at_most_half(self, config7):
        """One round at least halves the correct-value spread."""
        result = run_protocol(
            approximate_factory(rounds=1),
            config7,
            FLOAT_INPUTS,
            adversary=EquivocatingAdversary([2, 5], -100.0, 100.0),
            max_rounds=2,
        )
        correct_inputs = [
            FLOAT_INPUTS[p] for p in config7.process_ids if p not in (2, 5)
        ]
        spread_before = max(correct_inputs) - min(correct_inputs)
        values = list(result.decisions.values())
        assert max(values) - min(values) <= spread_before / 2 + 1e-9

    def test_malformed_and_silent_faults(self, config7):
        rounds = 6
        for adversary in (
            MalformedArrayAdversary([3, 4]),
            SilentAdversary([3, 4]),
        ):
            result = run_protocol(
                approximate_factory(rounds=rounds),
                config7,
                FLOAT_INPUTS,
                adversary=adversary,
                max_rounds=rounds + 1,
            )
            values = list(result.decisions.values())
            assert max(values) - min(values) < 1.0

    def test_numeric_inputs_required(self, config7):
        with pytest.raises(ConfigurationError):
            run_protocol(
                approximate_factory(rounds=2),
                config7,
                {p: "x" for p in config7.process_ids},
                max_rounds=3,
            )


class TestGridAutomaton:
    def test_native_run_converges(self, config7):
        grid = list(range(0, 65))
        automaton = ApproximateAgreementAutomaton(config7, grid, rounds=6)
        inputs = {1: 0, 2: 64, 3: 32, 4: 16, 5: 48, 6: 8, 7: 56}
        result = run_protocol(
            automaton_factory(automaton), config7, inputs, max_rounds=8
        )
        values = list(result.decisions.values())
        assert max(values) - min(values) <= 2  # epsilon + grid step

    def test_declares_horizon(self, config7):
        automaton = ApproximateAgreementAutomaton(config7, range(10), rounds=4)
        assert automaton.rounds_to_decide == 4

    def test_junk_messages_replaced_by_own_value(self, config7):
        automaton = ApproximateAgreementAutomaton(config7, range(10), rounds=2)
        messages = (5, "junk", 5, 5, 5, 5, 5)
        state = automaton.transition(1, messages)
        assert state == ("approx", 1, 5)

    def test_decision_waits_for_horizon(self, config7):
        automaton = ApproximateAgreementAutomaton(config7, range(10), rounds=3)
        early = ("approx", 2, 5)
        late = ("approx", 3, 5)
        assert automaton.decision(1, early) is BOTTOM
        assert automaton.decision(1, late) == 5
