"""Tests for the exponential EIG baseline."""

import pytest

from repro.agreement.eig_agreement import (
    ExponentialAgreementAutomaton,
    run_eig_agreement,
)
from repro.analysis.complexity import eig_total_bits

from tests.conftest import assert_agreement_and_validity, byzantine_adversaries


class TestCorrectness:
    @pytest.mark.parametrize("faulty", [(1,), (2,), (4,)])
    def test_n4_sweep(self, config4, faulty):
        inputs = {p: p % 2 for p in config4.process_ids}
        for adversary in byzantine_adversaries(list(faulty)):
            result = run_eig_agreement(
                config4, inputs, [0, 1], adversary=adversary
            )
            assert_agreement_and_validity(result, inputs)

    @pytest.mark.parametrize("faulty", [(1, 2), (5, 6)])
    def test_n7_sweep(self, config7, faulty):
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in byzantine_adversaries(list(faulty)):
            result = run_eig_agreement(
                config7, inputs, [0, 1], adversary=adversary
            )
            assert_agreement_and_validity(result, inputs)

    def test_decides_at_t_plus_one(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_eig_agreement(config7, inputs, [0, 1])
        assert result.rounds == config7.t + 1

    def test_multivalued(self, config4):
        inputs = {1: "x", 2: "y", 3: "x", 4: "z"}
        result = run_eig_agreement(config4, inputs, ["x", "y", "z"])
        assert len(result.decided_values()) == 1


class TestExponentialCost:
    def test_metered_bits_match_model(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_eig_agreement(config4, inputs, [0, 1])
        assert result.metrics.total_bits == eig_total_bits(
            config4.n, config4.t, 2
        )

    def test_bits_grow_exponentially_in_t(self):
        costs = [eig_total_bits(3 * t + 1, t, 2) for t in (1, 2, 3, 4)]
        ratios = [after / before for before, after in zip(costs, costs[1:])]
        # Exponential shape: every step multiplies cost by a large and
        # *increasing* factor (the message depth and n both grow).
        assert all(ratio > 10 for ratio in ratios)
        assert ratios[1] > ratios[0]
        assert ratios[2] > ratios[1]


class TestAutomatonForm:
    def test_declares_horizon(self, config4):
        automaton = ExponentialAgreementAutomaton(config4, [0, 1])
        assert automaton.rounds_to_decide == config4.t + 1

    def test_runs_natively(self, config4):
        from repro.core.automaton import automaton_factory
        from repro.runtime.engine import run_protocol

        automaton = ExponentialAgreementAutomaton(config4, [0, 1])
        inputs = {p: 1 for p in config4.process_ids}
        result = run_protocol(
            automaton_factory(automaton),
            config4,
            inputs,
            max_rounds=config4.t + 2,
        )
        assert result.decided_values() == {1}
