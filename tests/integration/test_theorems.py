"""Integration tests for the paper's three main formal claims.

* Theorem 2 — the full-information protocol simulates any consensus
  protocol (checked with the explicit witness: identity scaling and
  the recursive reconstruction f_p),
* Theorem 9 — the compact protocol simulates the full-information
  protocol (checked directly fault-free; existentially under faults),
* Theorem 1 — simulation preserves correctness predicates (checked by
  running a predicate-satisfying protocol through both transforms).
"""

import pytest

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.agreement.eig_agreement import ExponentialAgreementAutomaton
from repro.core.automaton import automaton_factory
from repro.core.predicates import byzantine_agreement_predicate
from repro.core.transform import canonical_form, full_information_form
from repro.fullinfo.protocol import full_information_factory, reconstruct_state
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM

from tests.conftest import byzantine_adversaries
from tests.core.reference_simulation import (
    SimulationWitness,
    check_simulation,
    run_automaton_locally,
)


class TestTheorem2:
    """Full information simulates an arbitrary protocol."""

    def test_simulation_witness_fault_free(self, config4):
        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        inputs = {p: p % 2 for p in config4.process_ids}
        rounds = 2

        # E': the full-information protocol, states recorded per round.
        primed = run_protocol(
            full_information_factory(value_alphabet=[0, 1]),
            config4,
            inputs,
            run_full_rounds=rounds,
            record_trace=True,
        )
        primed_states = {
            p: [inputs[p]]
            + [
                primed.trace.snapshot(r, p)["state"]
                for r in range(1, rounds + 1)
            ]
            for p in config4.process_ids
        }
        # E: the original protocol run natively.
        reference_states = run_automaton_locally(protocol, inputs, rounds)

        witness = SimulationWitness(
            simulation_functions={
                p: (lambda state, p=p: reconstruct_state(protocol, p, state))
                for p in config4.process_ids
            },
            scaling=lambda round_number: round_number,  # identity
        )
        check_simulation(
            witness,
            primed_states,
            reference_states,
            correct_ids=config4.process_ids,
            rounds=rounds,
        )


class TestTheorem1ViaTransforms:
    """Correctness predicates survive both simulation steps."""

    @pytest.mark.parametrize("strategy_index", range(6))
    def test_canonical_form_satisfies_byzantine_predicate(
        self, config4, strategy_index
    ):
        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        form = canonical_form(protocol, k=2)
        predicate = byzantine_agreement_predicate()
        inputs = {p: p % 2 for p in config4.process_ids}
        adversary = byzantine_adversaries([3])[strategy_index]
        result = form.run(inputs, adversary=adversary)
        assert predicate(
            result.answer_vector(),
            frozenset(result.faulty_ids),
            tuple(inputs[p] for p in config4.process_ids),
        )

    def test_full_information_form_same_decisions_as_native(self, config4):
        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        form = full_information_form(protocol)
        inputs = {p: p % 2 for p in config4.process_ids}
        via_form = form.run(inputs)
        native = run_protocol(
            automaton_factory(protocol),
            config4,
            inputs,
            max_rounds=config4.t + 2,
        )
        assert via_form.decisions == native.decisions

    def test_termination_preserved(self, config4):
        """Theorem 1(1): the canonical form decides by its deadline."""
        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        for k in (1, 2, 3):
            form = canonical_form(protocol, k=k)
            inputs = {p: p % 2 for p in config4.process_ids}
            result = form.run(inputs, adversary=SilentAdversary([2]))
            assert result.is_deciding()
            assert result.rounds == form.deadline


class TestTransformAPI:
    def test_requires_exactly_one_parameter(self, config4):
        from repro.errors import ConfigurationError

        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        with pytest.raises(ConfigurationError):
            canonical_form(protocol)
        with pytest.raises(ConfigurationError):
            canonical_form(protocol, k=1, epsilon=1.0)

    def test_requires_known_horizon(self, config4):
        from repro.core.automaton import AutomatonProtocol
        from repro.errors import ConfigurationError

        class NoHorizon(AutomatonProtocol):
            def message(self, sender, receiver, state):
                return state

            def transition(self, process_id, messages):
                return messages[0]

            def decision(self, process_id, state):
                return BOTTOM

        with pytest.raises(ConfigurationError):
            canonical_form(NoHorizon(config4, [0, 1]), k=2)

    def test_epsilon_controls_deadline(self, config4):
        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        fast = canonical_form(protocol, epsilon=0.5)
        slow = canonical_form(protocol, epsilon=2.0)
        assert fast.deadline <= slow.deadline
        assert fast.k > slow.k

    def test_transform_equals_direct_corollary10(self, config4):
        """canonical_form(EIG automaton) is Corollary 10's protocol:
        identical decisions on identical executions."""
        from repro.compact.byzantine_agreement import (
            run_compact_byzantine_agreement,
        )

        protocol = ExponentialAgreementAutomaton(config4, [0, 1])
        form = canonical_form(protocol, k=2)
        for pattern in range(2):
            inputs = {p: (p + pattern) % 2 for p in config4.process_ids}
            adversary_a = EquivocatingAdversary([4], 0, 1)
            adversary_b = EquivocatingAdversary([4], 0, 1)
            via_transform = form.run(inputs, adversary=adversary_a, seed=9)
            direct = run_compact_byzantine_agreement(
                config4,
                inputs,
                value_alphabet=[0, 1],
                k=2,
                adversary=adversary_b,
                seed=9,
            )
            assert via_transform.decisions == direct.decisions
            assert via_transform.rounds == direct.rounds
