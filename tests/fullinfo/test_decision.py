"""Tests for Theorem 2's reconstruction and the EIG decision rule."""

import pytest

from repro.adversary import CollusionAdversary, EquivocatingAdversary
from repro.core.automaton import AutomatonProtocol
from repro.errors import ProtocolViolation
from repro.fullinfo.decision import eig_byzantine_decision, make_eig_decision_rule
from repro.fullinfo.protocol import (
    DerivedDecisionRule,
    full_information_factory,
    reconstruct_state,
)
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM

from tests.arrays.builders import uniform_array
from tests.core.reference_simulation import run_automaton_locally


class SumProtocol(AutomatonProtocol):
    """Toy consensus-ish protocol: state accumulates message sums."""

    def message(self, sender, receiver, state):
        return state if isinstance(state, int) else state[0]

    def transition(self, process_id, messages):
        return (sum(messages), process_id)

    def decision(self, process_id, state):
        return BOTTOM


class TestReconstruction:
    def test_depth_zero_is_initial_state(self, config4):
        protocol = SumProtocol(config4, [0, 1, 2, 3])
        assert reconstruct_state(protocol, 1, 2) == 2

    def test_matches_native_execution(self, config4):
        """f_p on the real full-information state equals running P."""
        protocol = SumProtocol(config4, [0, 1, 2, 3])
        inputs = {1: 0, 2: 1, 3: 2, 4: 3}
        native = run_automaton_locally(protocol, inputs, rounds=3)
        fullinfo = run_protocol(
            full_information_factory(value_alphabet=[0, 1, 2, 3]),
            config4,
            inputs,
            run_full_rounds=3,
        )
        for process_id in config4.process_ids:
            reconstructed = reconstruct_state(
                protocol, process_id, fullinfo.processes[process_id].state
            )
            assert reconstructed == native[process_id][3]

    def test_memoisation_handles_shared_subtrees(self, config4):
        protocol = SumProtocol(config4, [0, 1, 2, 3])
        # A deep state with heavy sharing must not blow up.
        state = uniform_array(1, depth=6, n=4)
        result = reconstruct_state(protocol, 1, state)
        assert isinstance(result, tuple)


class TestDerivedDecisionRule:
    def test_composes_gamma_with_reconstruction(self, config4):
        class DecideAtTwo(SumProtocol):
            def decision(self, process_id, state):
                if isinstance(state, tuple):
                    return state[0] % 7
                return BOTTOM

        protocol = DecideAtTwo(config4, [0, 1, 2, 3])
        rule = DerivedDecisionRule(protocol, horizon=2)
        inputs = {1: 0, 2: 1, 3: 2, 4: 3}
        native = run_automaton_locally(protocol, inputs, rounds=2)
        state = run_protocol(
            full_information_factory([0, 1, 2, 3]),
            config4,
            inputs,
            run_full_rounds=2,
        ).processes[1].state
        assert rule(state, 2, 1) == protocol.decision(1, native[1][2])

    def test_horizon_suppresses_early_evaluation(self, config4):
        protocol = SumProtocol(config4, [0, 1, 2, 3])
        rule = DerivedDecisionRule(protocol, horizon=5)
        assert rule((0, 1, 2, 3), 2, 1) is BOTTOM


class TestEIGDecision:
    def test_requires_correct_depth(self, config4):
        with pytest.raises(ProtocolViolation):
            eig_byzantine_decision((0, 1, 0, 1), n=4, t=1, process_id=1, default=0)

    def test_fault_free_unanimity(self, config4):
        state = uniform_array(1, depth=2, n=4)
        assert eig_byzantine_decision(state, 4, 1, 1, default=0) == 1

    def test_garbage_leaves_normalised(self, config4):
        state = uniform_array(1, depth=2, n=4)
        # poison one leaf with an alien value
        poisoned = (state[0], state[1], state[2], (1, 1, 1, "junk"))
        value = eig_byzantine_decision(
            poisoned, 4, 1, 1, default=0, alphabet=[0, 1]
        )
        assert value == 1

    def test_agreement_under_adversaries(self, config7):
        """All correct processors resolve identical decisions."""
        rule = make_eig_decision_rule(config7.t, default=0, alphabet=[0, 1])
        for adversary in (
            EquivocatingAdversary([3, 6], 0, 1),
            CollusionAdversary([1, 7]),
        ):
            inputs = {p: p % 2 for p in config7.process_ids}
            result = run_protocol(
                full_information_factory(
                    [0, 1], decision_rule=rule, horizon=config7.t + 1
                ),
                config7,
                inputs,
                adversary=adversary,
                max_rounds=config7.t + 2,
            )
            assert len(result.decided_values()) == 1

    def test_validity_under_adversaries(self, config7):
        rule = make_eig_decision_rule(config7.t, default=0, alphabet=[0, 1])
        inputs = {p: 1 for p in config7.process_ids}
        result = run_protocol(
            full_information_factory(
                [0, 1], decision_rule=rule, horizon=config7.t + 1
            ),
            config7,
            inputs,
            adversary=EquivocatingAdversary([2, 5], 0, 1),
            max_rounds=config7.t + 2,
        )
        assert result.decided_values() == {1}

    def test_rule_waits_for_horizon(self):
        rule = make_eig_decision_rule(2, default=0)
        assert rule((0, 1), 1, 1) is BOTTOM
