"""Tests for the execution driver."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, SystemConfig


class CountdownProcess(Process):
    """Decides its input after a fixed number of rounds."""

    def __init__(self, process_id, config, input_value, rounds=3):
        super().__init__(process_id, config)
        self.input_value = input_value
        self.rounds = rounds

    def outgoing(self, round_number):
        return broadcast(self.input_value, self.config)

    def receive(self, round_number, incoming):
        if round_number >= self.rounds:
            self.decide(self.input_value, round_number)


def countdown_factory(rounds=3):
    def factory(process_id, config, input_value):
        return CountdownProcess(process_id, config, input_value, rounds=rounds)

    return factory


@pytest.fixture
def config():
    return SystemConfig(n=4, t=1)


@pytest.fixture
def inputs(config):
    return {process_id: process_id * 10 for process_id in config.process_ids}


class TestRun:
    def test_stops_when_all_decided(self, config, inputs):
        result = run_protocol(countdown_factory(3), config, inputs)
        assert result.rounds == 3
        assert result.decisions == {1: 10, 2: 20, 3: 30, 4: 40}

    def test_decision_rounds_recorded(self, config, inputs):
        result = run_protocol(countdown_factory(2), config, inputs)
        assert all(r == 2 for r in result.decision_rounds.values())

    def test_run_full_rounds_overrides_stop(self, config, inputs):
        result = run_protocol(
            countdown_factory(2), config, inputs, run_full_rounds=5
        )
        assert result.rounds == 5

    def test_max_rounds_guard(self, config, inputs):
        with pytest.raises(ConfigurationError):
            run_protocol(countdown_factory(100), config, inputs, max_rounds=5)

    def test_missing_inputs_rejected(self, config):
        with pytest.raises(ConfigurationError):
            run_protocol(countdown_factory(), config, {1: 0})

    def test_trace_recorded_when_asked(self, config, inputs):
        result = run_protocol(countdown_factory(2), config, inputs, record_trace=True)
        assert result.trace is not None
        assert result.trace.rounds == [1, 2]

    def test_no_trace_by_default(self, config, inputs):
        result = run_protocol(countdown_factory(2), config, inputs)
        assert result.trace is None


class TestExecutionResult:
    def test_answer_vector_marks_faulty_bottom(self, config, inputs):
        from repro.adversary import SilentAdversary

        result = run_protocol(
            countdown_factory(2),
            config,
            inputs,
            adversary=SilentAdversary([2]),
        )
        vector = result.answer_vector()
        assert vector[1] is BOTTOM  # processor 2
        assert vector[0] == 10

    def test_decided_values(self, config, inputs):
        result = run_protocol(countdown_factory(2), config, inputs)
        assert result.decided_values() == {10, 20, 30, 40}

    def test_is_deciding(self, config, inputs):
        result = run_protocol(countdown_factory(2), config, inputs)
        assert result.is_deciding()

    def test_correct_ids_excludes_faulty(self, config, inputs):
        from repro.adversary import SilentAdversary

        result = run_protocol(
            countdown_factory(2),
            config,
            inputs,
            adversary=SilentAdversary([3]),
        )
        assert result.correct_ids == (1, 2, 4)

    def test_correct_ids_is_ascending_tuple(self, config, inputs):
        """The annotation promises Tuple[ProcessId, ...], ascending."""
        result = run_protocol(countdown_factory(2), config, inputs)
        assert isinstance(result.correct_ids, tuple)
        assert result.correct_ids == tuple(sorted(config.process_ids))

    def test_correct_ids_tuple_with_faulty(self):
        from repro.adversary import SilentAdversary

        config = SystemConfig(n=7, t=2)
        inputs = {p: p * 10 for p in config.process_ids}
        result = run_protocol(
            countdown_factory(2),
            config,
            inputs,
            adversary=SilentAdversary([1, 4]),
        )
        assert isinstance(result.correct_ids, tuple)
        assert result.correct_ids == (2, 3, 5, 6, 7)
        assert not set(result.correct_ids) & {1, 4}


class TestDeterminism:
    def test_same_seed_same_outcome(self, config, inputs):
        from repro.adversary import RandomGarbageAdversary

        results = [
            run_protocol(
                countdown_factory(3),
                config,
                inputs,
                adversary=RandomGarbageAdversary([2]),
                seed=42,
                record_trace=True,
            )
            for _ in range(2)
        ]
        first, second = (
            [(e.sender, e.receiver, repr(e.payload)) for e in r.trace.envelopes]
            for r in results
        )
        assert first == second
