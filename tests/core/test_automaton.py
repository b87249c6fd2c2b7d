"""Tests for the Section 3.1 automaton formalism."""

import pytest

from repro.adversary import SilentAdversary
from repro.core.automaton import (
    AutomatonProcess,
    AutomatonProtocol,
    automaton_factory,
)
from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM

from tests.core.reference_simulation import run_automaton_locally


class MajorityOnce(AutomatonProtocol):
    """One exchange round, then decide the majority of inputs."""

    def message(self, sender, receiver, state):
        return state if not isinstance(state, tuple) else state[0]

    def transition(self, process_id, messages):
        tally = {}
        for message in messages:
            tally[message] = tally.get(message, 0) + 1
        winner = min(tally, key=lambda value: (-tally[value], repr(value)))
        return (winner, messages)

    def decision(self, process_id, state):
        return state[0] if isinstance(state, tuple) else BOTTOM

    @property
    def rounds_to_decide(self):
        return 1


@pytest.fixture
def protocol(config4):
    return MajorityOnce(config4, [0, 1])


class TestAutomatonProtocol:
    def test_initial_state_is_input(self, protocol):
        assert protocol.initial_state(1, 0) == 0

    def test_rejects_off_alphabet_input(self, protocol):
        with pytest.raises(ConfigurationError):
            protocol.initial_state(1, "x")

    def test_empty_alphabet_rejected(self, config4):
        with pytest.raises(ConfigurationError):
            MajorityOnce(config4, [])

    def test_default_message_coercion(self, protocol):
        assert protocol.coerce_message(1, 2, BOTTOM, 1) == 0  # first of V
        assert protocol.coerce_message(1, 2, "raw", 1) == "raw"


class TestAutomatonProcess:
    def test_runs_on_engine(self, config4, protocol):
        inputs = {1: 1, 2: 1, 3: 0, 4: 1}
        result = run_protocol(
            automaton_factory(protocol), config4, inputs, max_rounds=3
        )
        assert set(result.decisions.values()) == {1}
        assert result.rounds == 1

    def test_absent_faulty_message_coerced(self, config4, protocol):
        inputs = {1: 1, 2: 1, 3: 1, 4: 0}
        result = run_protocol(
            automaton_factory(protocol),
            config4,
            inputs,
            adversary=SilentAdversary([4]),
            max_rounds=3,
        )
        # The missing message became V[0] = 0; majority of (1,1,1,0)=1.
        assert set(result.decisions.values()) == {1}

    def test_later_gamma_values_ignored_after_decision(self, config4):
        class FlipFlop(MajorityOnce):
            def decision(self, process_id, state):
                if not isinstance(state, tuple):
                    return BOTTOM
                return state[1][0]  # varies round to round

        protocol = FlipFlop(config4, [0, 1])
        inputs = {1: 1, 2: 0, 3: 1, 4: 0}
        result = run_protocol(
            automaton_factory(protocol), config4, inputs, run_full_rounds=3
        )
        # Decisions were fixed in round 1 and never changed.
        assert all(r == 1 for r in result.decision_rounds.values())

    def test_snapshot_exposes_state(self, config4, protocol):
        process = AutomatonProcess(1, config4, 1, protocol)
        assert process.snapshot()["state"] == 1


class TestLocalRunner:
    def test_matches_engine_fault_free(self, config4, protocol):
        inputs = {1: 1, 2: 1, 3: 0, 4: 1}
        local = run_automaton_locally(protocol, inputs, rounds=2)
        engine = run_protocol(
            automaton_factory(protocol), config4, inputs, run_full_rounds=2
        )
        for process_id in config4.process_ids:
            assert local[process_id][2] == engine.processes[process_id].state

    def test_round_zero_states_are_inputs(self, config4, protocol):
        inputs = {1: 1, 2: 0, 3: 0, 4: 1}
        local = run_automaton_locally(protocol, inputs, rounds=1)
        for process_id, input_value in inputs.items():
            assert local[process_id][0] == input_value
