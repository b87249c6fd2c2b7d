"""Tests for the process harness: round structure and decisions."""

import copy
import pickle
import sys
import types

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


class TestBroadcastReadsAsThePlainDict:
    """Every read a recipient map answers, the broadcast answers as the
    ``dict.fromkeys`` it stands for, though it holds no entries."""

    N = 4

    @pytest.fixture
    def pair(self):
        messages = broadcast(("m",), SystemConfig(n=self.N, t=1))
        return messages, dict.fromkeys(range(1, self.N + 1), ("m",))

    @pytest.mark.parametrize("key", [True, 1.0, 0, N + 1, 2, "2", None])
    def test_lookups(self, pair, key):
        messages, plain = pair
        assert (key in messages) == (key in plain)
        assert messages.get(key) == plain.get(key)
        assert messages.get(key, "default") == plain.get(key, "default")
        if key in plain:
            assert messages[key] is plain[key]
        else:
            with pytest.raises(KeyError):
                messages[key]

    def test_unhashable_key_raises_as_on_a_dict(self, pair):
        for mapping in pair:
            with pytest.raises(TypeError):
                [2] in mapping
            with pytest.raises(TypeError):
                mapping.get([2])
            with pytest.raises(TypeError):
                mapping[[2]]

    def test_iteration_order_and_views(self, pair):
        messages, plain = pair
        assert list(messages) == list(plain) == [1, 2, 3, 4]
        assert list(messages.keys()) == list(plain.keys())
        assert list(messages.values()) == list(plain.values())
        assert list(messages.items()) == list(plain.items())
        assert len(messages) == len(plain)
        assert repr(messages) == repr(plain)

    def test_equality_both_ways(self, pair):
        messages, plain = pair
        assert messages == plain and plain == messages
        assert not messages != plain
        other = broadcast(("m",), SystemConfig(n=self.N, t=1))
        assert messages == other
        assert messages != dict(plain, **{"2": 0})

    def test_mapping_proxy_reads_it_like_the_dict(self, pair):
        messages, plain = pair
        view = types.MappingProxyType(messages)
        assert dict(view) == plain
        assert view[3] is plain[3]
        assert view.get(9, "none") == "none"
        with pytest.raises(TypeError):
            view[2] = "forged"

    def test_pickles_to_the_plain_dict(self, pair):
        # A pickle writes a dict only for an exact dict, so the
        # broadcast's own bytes name its reconstructor; what they load
        # pickles to the plain dict's bytes.
        messages, plain = pair
        restored = pickle.loads(pickle.dumps(messages))
        assert type(restored) is dict
        assert pickle.dumps(restored) == pickle.dumps(plain)

    def test_holds_no_entries(self):
        small = broadcast("m", SystemConfig(n=4, t=1))
        large = broadcast("m", SystemConfig(n=400, t=1))
        assert not hasattr(small, "__dict__")
        assert sys.getsizeof(small) == sys.getsizeof(large)
        assert large.process_ids is SystemConfig(n=400, t=0).process_ids


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
