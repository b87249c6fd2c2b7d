"""Tests for execution records and the simulation checkers."""

import pytest

from repro.adversary import SilentAdversary
from repro.core.simulation import check_fullinfo_consistency
from repro.errors import SimulationMismatch
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM

from tests.core.reference_simulation import (
    ExecutionRecord,
    SimulationWitness,
    check_simulation,
    states_by_round,
)


class TinyProcess(Process):
    def __init__(self, process_id, config, input_value):
        super().__init__(process_id, config)
        self.value = input_value

    def outgoing(self, round_number):
        return broadcast(self.value, self.config)

    def receive(self, round_number, incoming):
        if round_number >= 2:
            self.decide(self.value, round_number)


class TestExecutionRecord:
    def test_projection(self, config4):
        inputs = {p: p for p in config4.process_ids}
        result = run_protocol(
            lambda p, c, v: TinyProcess(p, c, v),
            config4,
            inputs,
            adversary=SilentAdversary([3]),
            record_trace=True,
        )
        record = ExecutionRecord.from_result(result)
        assert record.faulty == frozenset({3})
        assert record.inputs == (1, 2, 3, 4)
        assert record.answers[2] is BOTTOM
        assert record.is_deciding()
        assert record.correct_answers() == {1: 1, 2: 2, 4: 4}

    def test_faulty_messages_empty_without_trace(self, config4):
        inputs = {p: p for p in config4.process_ids}
        result = run_protocol(
            lambda p, c, v: TinyProcess(p, c, v), config4, inputs
        )
        record = ExecutionRecord.from_result(result)
        assert record.faulty_messages == ()


class TestCheckSimulation:
    def test_identity_simulation_passes(self):
        witness = SimulationWitness(
            simulation_functions={1: lambda state: state},
            scaling=lambda round_number: round_number,
        )
        states = {1: ["init", "a", "b"]}
        check_simulation(witness, states, states, correct_ids=[1], rounds=2)

    def test_mismatch_detected(self):
        witness = SimulationWitness(
            simulation_functions={1: lambda state: state},
            scaling=lambda round_number: round_number,
        )
        primed = {1: ["init", "a", "b"]}
        reference = {1: ["init", "a", "X"]}
        with pytest.raises(SimulationMismatch):
            check_simulation(
                witness, primed, reference, correct_ids=[1], rounds=2
            )

    def test_scaling_function_applied(self):
        witness = SimulationWitness(
            simulation_functions={1: lambda state: state},
            scaling=lambda round_number: 2 * round_number,
        )
        primed = {1: [None, "a"]}
        reference = {1: [None, "junk", "a"]}
        check_simulation(witness, primed, reference, correct_ids=[1], rounds=1)


class TestFullinfoConsistency:
    def make_states(self):
        """A consistent fault-free family for n=2 (ids 1, 2)."""
        inputs = {1: "a", 2: "b"}
        round1 = ("a", "b")
        round2 = (round1, round1)
        return {1: ["a", round1, round2], 2: ["b", round1, round2]}, inputs

    def test_consistent_family_passes(self):
        states, inputs = self.make_states()
        check_fullinfo_consistency(states, [1, 2], inputs, n=2)

    def test_wrong_round_zero_rejected(self):
        states, inputs = self.make_states()
        states[1][0] = "z"
        with pytest.raises(SimulationMismatch):
            check_fullinfo_consistency(states, [1, 2], inputs, n=2)

    def test_correct_component_mismatch_rejected(self):
        states, inputs = self.make_states()
        states[1][2] = (("a", "X"), states[1][1])
        with pytest.raises(SimulationMismatch):
            check_fullinfo_consistency(states, [1, 2], inputs, n=2)

    def test_faulty_component_may_differ_but_must_be_legal(self):
        # Processor 2 faulty: its components can vary between correct
        # processors, but must be well-shaped value arrays.
        inputs = {1: "a", 2: "b"}
        states = {1: ["a", ("a", "x")]}
        check_fullinfo_consistency(
            states, [1], inputs, n=2, value_alphabet=["a", "b", "x"]
        )

    def test_faulty_component_with_alien_leaf_rejected(self):
        inputs = {1: "a", 2: "b"}
        states = {1: ["a", ("a", "ALIEN")]}
        with pytest.raises(SimulationMismatch):
            check_fullinfo_consistency(
                states, [1], inputs, n=2, value_alphabet=["a", "b"]
            )

    def test_faulty_component_with_wrong_depth_rejected(self):
        inputs = {1: "a", 2: "b"}
        states = {1: ["a", ("a", ("b", "b"))]}
        with pytest.raises(SimulationMismatch):
            check_fullinfo_consistency(states, [1], inputs, n=2)

    def test_non_vector_state_rejected(self):
        inputs = {1: "a", 2: "b"}
        states = {1: ["a", "not-a-vector"]}
        with pytest.raises(SimulationMismatch):
            check_fullinfo_consistency(states, [1], inputs, n=2)


class TestStatesByRound:
    def test_pivot(self):
        snapshots = {
            1: {1: {"state": "a"}, 2: {"state": "b"}},
            2: {1: {"state": "c"}, 2: {"state": "d"}},
        }
        pivoted = states_by_round(snapshots, key="state")
        assert pivoted[1] == [None, "a", "c"]
        assert pivoted[2] == [None, "b", "d"]
