"""Tests for Protocol 1: the full-information protocol."""

from repro.adversary import (
    Adversary,
    EquivocatingAdversary,
    MalformedArrayAdversary,
    SilentAdversary,
)
from repro.arrays.value_array import array_depth, array_leaves
from repro.fullinfo.protocol import (
    FullInformationAutomaton,
    full_information_factory,
    full_information_sizer,
)
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM

from tests.conftest import canonical_bytes, nested_tuple
from tests.fullinfo.reference_full_information import (
    reference_eig_agreement_factory,
)


def run_fullinfo(config, inputs, adversary=None, rounds=3, **kwargs):
    return run_protocol(
        full_information_factory(value_alphabet=[0, 1]),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=rounds,
        **kwargs,
    )


class TestStateGrowth:
    def test_state_depth_equals_round(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_fullinfo(config4, inputs, rounds=3)
        for process in result.processes.values():
            assert array_depth(process.state, config4.n) == 3

    def test_round_one_state_is_input_vector(self, config4):
        inputs = {1: 1, 2: 0, 3: 1, 4: 0}
        result = run_fullinfo(config4, inputs, rounds=1)
        for process in result.processes.values():
            assert process.state == (1, 0, 1, 0)

    def test_states_identical_when_fault_free(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_fullinfo(config4, inputs, rounds=3)
        states = {repr(process.state) for process in result.processes.values()}
        assert len(states) == 1

    def test_self_component_is_own_previous_state(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        two = run_fullinfo(config4, inputs, rounds=2)
        three = run_fullinfo(config4, inputs, rounds=3)
        for process_id, process in three.processes.items():
            assert (
                process.state[process_id - 1]
                == two.processes[process_id].state
            )


class TestMalformedHandling:
    def test_malformed_substituted_with_own_state(self, config4):
        inputs = {p: 1 for p in config4.process_ids}
        result = run_fullinfo(
            config4, inputs, adversary=MalformedArrayAdversary([3]), rounds=3
        )
        for process in result.processes.values():
            assert array_depth(process.state, config4.n) == 3
            assert all(leaf in (0, 1) for leaf in array_leaves(process.state))

    def test_silence_substituted(self, config4):
        inputs = {p: 1 for p in config4.process_ids}
        result = run_fullinfo(
            config4, inputs, adversary=SilentAdversary([3]), rounds=2
        )
        for process in result.processes.values():
            assert array_depth(process.state, config4.n) == 2

    def test_alien_values_rejected(self, config4):
        inputs = {p: 1 for p in config4.process_ids}
        result = run_fullinfo(
            config4,
            inputs,
            adversary=EquivocatingAdversary([3], "alien", 0),
            rounds=2,
        )
        for process in result.processes.values():
            assert all(leaf in (0, 1) for leaf in array_leaves(process.state))


    def test_payload_nested_past_the_recursion_limit_is_substituted(
        self, config4
    ):
        """A Byzantine sender cannot crash a correct EIG processor."""
        from repro.agreement.eig_agreement import eig_agreement_factory

        hostile = nested_tuple(config4.n)  # right width at every level
        processes = {
            p: eig_agreement_factory(config4, [0, 1], default=0)(p, config4, 1)
            for p in (1, 2, 3)
        }
        for round_number in (1, 2):
            sent = {p: q.outgoing(round_number)[p] for p, q in processes.items()}
            for process in processes.values():
                process.receive(round_number, {**sent, 4: hostile})
        for process in processes.values():
            assert array_depth(process.state, config4.n) == 2
            assert set(array_leaves(process.state)) == {1}
            assert process.decision == 1

    def test_plain_tuple_reference_path_substitutes_it_too(self, config4):
        """The oracle validates with ``validate_array``, whose plain
        walk is bounded by the depth the receiver expects."""
        from repro.agreement.eig_agreement import eig_agreement_factory

        hostile = nested_tuple(config4.n)

        class Nester(Adversary):
            def outgoing(self, round_number, sender, context):
                return {p: hostile for p in self.config.process_ids}

        results = [
            run_protocol(
                factory(config4, [0, 1], default=0),
                config4,
                {p: 1 for p in config4.process_ids},
                adversary=Nester([4]),
                max_rounds=config4.t + 2,
                sizer=full_information_sizer(2, config4.n),
            )
            for factory in (
                reference_eig_agreement_factory, eig_agreement_factory
            )
        ]
        assert results[0].decided_values() == {1}
        assert canonical_bytes(results[0]) == canonical_bytes(results[1])


class TestDecisionPlumbing:
    def test_rule_fires_at_horizon(self, config4):
        observed = []

        def rule(state, round_number, process_id):
            observed.append(round_number)
            return 1

        result = run_protocol(
            full_information_factory([0, 1], decision_rule=rule, horizon=2),
            config4,
            {p: 1 for p in config4.process_ids},
            run_full_rounds=2,
        )
        assert set(observed) == {2}
        assert set(result.decisions.values()) == {1}

    def test_no_rule_means_no_decisions(self, config4):
        result = run_fullinfo(config4, {p: 1 for p in config4.process_ids})
        assert all(d is BOTTOM for d in result.decisions.values())


class TestSizer:
    def test_matches_exact_model(self, config4):
        from repro.analysis.complexity import full_information_message_bits

        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_fullinfo(
            config4,
            inputs,
            rounds=3,
            sizer=full_information_sizer(2, config4.n),
        )
        expected = sum(
            config4.n**2 * full_information_message_bits(config4.n, r, 2)
            for r in range(1, 4)
        )
        assert result.metrics.total_bits == expected

    def test_exponential_growth_per_round(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_fullinfo(
            config7,
            inputs,
            rounds=3,
            sizer=full_information_sizer(2, config7.n),
        )
        by_round = dict(result.metrics.bits_by_round())
        assert by_round[2] / by_round[1] > config7.n / 2
        assert by_round[3] / by_round[2] > config7.n / 2


class TestAutomatonForm:
    def test_automaton_matches_process_runs(self, config4):
        from repro.core.automaton import automaton_factory

        inputs = {p: p % 2 for p in config4.process_ids}
        automaton = FullInformationAutomaton(config4, [0, 1])
        via_automaton = run_protocol(
            automaton_factory(automaton),
            config4,
            inputs,
            run_full_rounds=2,
        )
        via_process = run_fullinfo(config4, inputs, rounds=2)
        for process_id in config4.process_ids:
            assert (
                via_automaton.processes[process_id].state
                == via_process.processes[process_id].state
            )
