"""Tests for the process harness: round structure and decisions."""

import copy
import pickle

import pytest

from repro.errors import DecisionError
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, SystemConfig, is_bottom


class EchoProcess(Process):
    """Minimal process: broadcasts its input once, records receptions."""

    def __init__(self, process_id, config, input_value):
        super().__init__(process_id, config)
        self.input_value = input_value
        self.received = []

    def outgoing(self, round_number):
        return broadcast(self.input_value, self.config)

    def receive(self, round_number, incoming):
        self.received.append(dict(incoming))


@pytest.fixture
def process():
    return EchoProcess(1, SystemConfig(n=4, t=1), "v")


class TestBroadcast:
    def test_covers_all_ids_including_self(self):
        config = SystemConfig(n=4, t=1)
        messages = broadcast("m", config)
        assert set(messages) == {1, 2, 3, 4}
        assert all(message == "m" for message in messages.values())

    def test_reads_as_the_plain_map_and_says_it_is_uniform(self):
        config = SystemConfig(n=4, t=1)
        messages = broadcast("m", config)
        assert messages == {1: "m", 2: "m", 3: "m", 4: "m"}
        assert list(messages) == [1, 2, 3, 4]
        assert messages.message == "m"

    @pytest.mark.parametrize("edit", [
        lambda messages: messages.__setitem__(2, "other"),
        lambda messages: messages.__delitem__(2),
        lambda messages: messages.update({2: "other"}),
        lambda messages: messages.__ior__({2: "other"}),
        lambda messages: messages.setdefault(9, "other"),
        lambda messages: messages.pop(2),
        lambda messages: messages.popitem(),
        lambda messages: messages.clear(),
    ])
    def test_refuses_edits_that_would_falsify_message(self, edit):
        messages = broadcast("m", SystemConfig(n=4, t=1))
        with pytest.raises(TypeError):
            edit(messages)
        assert messages == {1: "m", 2: "m", 3: "m", 4: "m"}

    def test_copies_and_pickles_as_the_editable_plain_dict(self):
        messages = broadcast(("m",), SystemConfig(n=4, t=1))
        for clone in (
            dict(messages), messages.copy(), copy.copy(messages),
            copy.deepcopy(messages), pickle.loads(pickle.dumps(messages)),
        ):
            assert type(clone) is dict and clone == messages
            clone[2] = "other"


class TestDecisions:
    def test_initially_undecided(self, process):
        assert not process.has_decided()
        assert is_bottom(process.decision)
        assert process.decision_round is None

    def test_decide_records_value_and_round(self, process):
        process.decide("x", round_number=3)
        assert process.has_decided()
        assert process.decision == "x"
        assert process.decision_round == 3

    def test_decide_is_idempotent_for_same_value(self, process):
        process.decide("x", 3)
        process.decide("x", 5)  # no error
        assert process.decision_round == 3  # first decision wins

    def test_decision_is_irrevocable(self, process):
        process.decide("x", 3)
        with pytest.raises(DecisionError):
            process.decide("y", 4)

    def test_cannot_decide_bottom(self, process):
        with pytest.raises(DecisionError):
            process.decide(BOTTOM, 1)

    def test_default_snapshot_exposes_decision(self, process):
        process.decide("x", 1)
        assert process.snapshot() == {"decision": "x"}
