"""Tests for the synchronous network: delivery, adversary, metering."""

import json

import pytest

from repro.adversary import EquivocatingAdversary
from repro.adversary.base import Adversary, PassiveAdversary
from repro.agreement.eig_agreement import eig_agreement_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.errors import ConfigurationError
from repro.fullinfo.protocol import full_information_sizer
import repro.runtime.network as network_module
from repro.obs import Observer, observing
from repro.obs.events import read_log
from repro.runtime import engine
from repro.runtime.engine import run_protocol
from repro.runtime.metrics import MessageMetrics, RoundUsage
from repro.runtime.network import (
    SynchronousNetwork,
    _default_sizer,
    _fixed_default_size,
)
from repro.runtime.node import Process, broadcast
from repro.runtime.rng import make_rng
from repro.runtime.trace import ExecutionTrace
from repro.types import BOTTOM, SystemConfig, is_bottom

from tests.conftest import nested_tuple


class Recorder(Process):
    def __init__(self, process_id, config, value):
        super().__init__(process_id, config)
        self.value = value
        self.rounds = []

    def outgoing(self, round_number):
        return broadcast((self.process_id, self.value), self.config)

    def receive(self, round_number, incoming):
        self.rounds.append(dict(incoming))


class FirstHalfOnly(Adversary):
    """Sends 'evil' to low ids, nothing to high ids."""

    def outgoing(self, round_number, sender, context):
        half = self.config.n // 2
        return {receiver: "evil" for receiver in range(1, half + 1)}


def build(config, adversary, process_class=Recorder, **kwargs):
    processes = {
        process_id: process_class(process_id, config, f"v{process_id}")
        for process_id in config.process_ids
        if process_id not in adversary.faulty_ids
    }
    inputs = {process_id: 0 for process_id in config.process_ids}
    adversary.bind(config, make_rng(0))
    return (
        processes,
        SynchronousNetwork(config, processes, adversary, inputs, **kwargs),
    )


class TestDelivery:
    def test_every_sender_slot_present(self):
        config = SystemConfig(n=4, t=1)
        processes, network = build(config, PassiveAdversary())
        network.run_round()
        incoming = processes[1].rounds[0]
        assert set(incoming) == {1, 2, 3, 4}

    def test_correct_messages_delivered_verbatim(self):
        config = SystemConfig(n=4, t=1)
        processes, network = build(config, PassiveAdversary())
        network.run_round()
        assert processes[1].rounds[0][3] == (3, "v3")

    def test_missing_faulty_message_is_bottom(self):
        config = SystemConfig(n=4, t=1)
        processes, network = build(config, FirstHalfOnly([4]))
        network.run_round()
        assert processes[1].rounds[0][4] == "evil"
        assert is_bottom(processes[3].rounds[0][4])

    def test_round_numbers_increment(self):
        config = SystemConfig(n=4, t=1)
        _, network = build(config, PassiveAdversary())
        assert network.run_round() == 1
        assert network.run_round() == 2


class TestValidation:
    def test_overlapping_correct_and_faulty_rejected(self):
        config = SystemConfig(n=4, t=1)
        adversary = FirstHalfOnly([1])
        adversary.bind(config, make_rng(0))
        processes = {
            process_id: Recorder(process_id, config, "v")
            for process_id in config.process_ids  # includes 1: overlap
        }
        with pytest.raises(ValueError):
            SynchronousNetwork(
                config, processes, adversary, {p: 0 for p in config.process_ids}
            )

    def test_uncovered_ids_rejected(self):
        config = SystemConfig(n=4, t=1)
        adversary = PassiveAdversary()
        adversary.bind(config, make_rng(0))
        processes = {
            process_id: Recorder(process_id, config, "v")
            for process_id in (1, 2, 3)  # 4 missing, not faulty either
        }
        with pytest.raises(ValueError):
            SynchronousNetwork(
                config, processes, adversary, {p: 0 for p in config.process_ids}
            )


class TestStrayRecipients:
    """A key outside ``1..n`` is a bug in a correct sender's map — not a
    faulty destination whose copy is metered and dropped."""

    class Misaddressed(Recorder):
        stray = 5

        def outgoing(self, round_number):
            messages = dict(super().outgoing(round_number))
            if self.process_id == 2:
                messages[self.stray] = "lost"
            return messages

    def network(self, adversary, process_class):
        return build(SystemConfig(n=4, t=1), adversary, process_class)[1]

    @pytest.mark.parametrize("stray", [0, 5, "3"])
    def test_correct_sender_fails_closed(self, stray, monkeypatch):
        monkeypatch.setattr(self.Misaddressed, "stray", stray)
        network = self.network(PassiveAdversary(), self.Misaddressed)
        with pytest.raises(ConfigurationError, match=f"2 sent to {stray!r}"):
            network.run_round()
        assert network.metrics.sender_usage(2).messages == 0

    def test_a_broadcast_built_for_a_wider_system_fails_closed(self):
        class Wide(Recorder):
            def outgoing(self, round_number):
                return broadcast("m", SystemConfig(n=6, t=1))

        with pytest.raises(ConfigurationError, match="1 sent to 5"):
            self.network(PassiveAdversary(), Wide).run_round()

    def test_faulty_destination_is_still_metered_and_dropped(self):
        network = self.network(FirstHalfOnly([4]), Recorder)
        network.run_round()
        assert network.metrics.sender_usage(2).messages == 4

    def test_faulty_sender_may_address_anything(self):
        class Anywhere(Adversary):
            def outgoing(self, round_number, sender, context):
                return {0: "x", 1: "evil", 7: "y", "3": "z"}

        network = self.network(Anywhere([4]), Recorder)
        network.run_round()
        assert network.processes[1].rounds[0][4] == "evil"
        assert set(network.processes[1].rounds[0]) == {1, 2, 3, 4}


class TestMetering:
    def test_correct_traffic_metered(self):
        config = SystemConfig(n=4, t=1)
        _, network = build(config, PassiveAdversary())
        network.run_round()
        assert network.metrics.total_messages == 16  # 4 senders x 4 receivers

    def test_adversary_traffic_not_metered_by_default(self):
        config = SystemConfig(n=4, t=1)
        _, network = build(config, FirstHalfOnly([4]))
        network.run_round()
        assert network.metrics.total_messages == 3 * 4

    def test_adversary_metering_opt_in(self):
        config = SystemConfig(n=4, t=1)
        _, network = build(config, FirstHalfOnly([4]), meter_adversary=True)
        network.run_round()
        assert network.metrics.total_messages == 3 * 4 + 2

    def test_custom_sizer_used(self):
        config = SystemConfig(n=4, t=1)
        _, network = build(config, PassiveAdversary(), sizer=lambda message: 5)
        network.run_round()
        assert network.metrics.total_bits == 16 * 5

    def test_null_predicate_feeds_non_null_count(self):
        config = SystemConfig(n=4, t=1)
        _, network = build(
            config, PassiveAdversary(), is_null=lambda message: True
        )
        network.run_round()
        assert network.metrics.total_non_null_messages == 0


class Scripted(Process):
    """Sends ``script[round][own id]``: a per-receiver map, or nothing."""

    def __init__(self, process_id, config, script):
        super().__init__(process_id, config)
        self.script = script

    def outgoing(self, round_number):
        return self.script.get(round_number, {}).get(self.process_id, {})

    def receive(self, round_number, incoming):
        pass


#: Three rounds at n=4 with processor 4 faulty.  Round 2 is silent
#: altogether, processor 3 is silent throughout, and the payloads mix
#: sizes, nulls ("null...") and explicit bottoms.
SCRIPT = {
    1: {
        1: {1: "a", 2: "null", 3: BOTTOM, 4: "abc"},
        2: {receiver: "bb" for receiver in (1, 2, 3, 4)},
        3: {1: BOTTOM, 2: BOTTOM},
    },
    3: {
        1: {2: "null", 3: "null"},
        2: {4: "to-the-faulty-one"},
    },
}


def scripted_network():
    """Built as the engine builds it, so ``schedule`` applies."""
    config = SystemConfig(n=4, t=1)
    adversary = FirstHalfOnly([4])
    adversary.bind(config, make_rng(0))
    processes = {
        process_id: Scripted(process_id, config, SCRIPT)
        for process_id in (1, 2, 3)
    }
    return engine.SynchronousNetwork(
        config, processes, adversary, {p: 0 for p in config.process_ids},
        sizer=len, is_null=lambda message: message.startswith("null"),
    )


@pytest.mark.usefixtures("schedule")
class TestBurstMetering:
    """A sender's burst, summed and recorded once, meters per message."""

    def test_network_meter_equals_record_per_message(self):
        network = scripted_network()
        for _ in range(3):
            network.run_round()
        reference = MessageMetrics()
        for round_number, senders in SCRIPT.items():
            for sender, per_receiver in senders.items():
                for receiver, payload in per_receiver.items():
                    if not is_bottom(payload):
                        reference.record(
                            round_number, sender, receiver, len(payload),
                            not payload.startswith("null"),
                        )
        metrics = network.metrics
        assert metrics.total_messages == reference.total_messages == 10
        assert metrics.total_bits == reference.total_bits
        assert metrics.bits_by_round() == reference.bits_by_round()
        assert metrics.non_null_by_sender() == reference.non_null_by_sender()
        for key in (1, 2, 3, 4):
            assert metrics.round_usage(key) == reference.round_usage(key)
            assert metrics.sender_usage(key) == reference.sender_usage(key)
        assert metrics.round_usage(3) == RoundUsage(3, 1, 25)

    def test_all_bottom_bursts_create_no_rows(self):
        network = scripted_network()
        network.run_round()
        network.run_round()  # nobody sends
        metrics = network.metrics
        assert metrics.rounds_used == 1
        assert [entry[0] for entry in metrics.bits_by_round()] == [1]
        # Processor 3 sent explicit bottoms only: no sender row either.
        assert set(metrics.non_null_by_sender()) == {1, 2}
        network.run_round()
        assert metrics.rounds_used == 3
        assert [entry[0] for entry in metrics.bits_by_round()] == [1, 3]
        assert set(metrics.non_null_by_sender()) == {1, 2}


@pytest.mark.usefixtures("schedule")
class TestSizeCacheCounters:
    """The sizing memo is consulted once per metered message, as before
    bursts were summed: numbers pinned at the commit that still recorded
    message by message.  Since correct processors at the same batch
    states with the same CORE send one payload object, the compact run
    measures fewer distinct objects (``net.size_cache`` was hit 210 /
    miss 35); hits plus misses still count every message."""

    CONFIG = SystemConfig(n=7, t=2)
    INPUTS = {process_id: process_id % 2 for process_id in CONFIG.process_ids}

    @staticmethod
    def net_counters(observer):
        return {
            name: value
            for name, value in observer.registry.counters().items()
            if name.startswith("net.")
        }

    def test_plain_payloads(self):
        with observing(Observer()) as observer:
            run_compact_byzantine_agreement(
                self.CONFIG, self.INPUTS, value_alphabet=[0, 1], k=1,
                adversary=EquivocatingAdversary([6, 7], 0, 1),
            )
        assert self.net_counters(observer) == {
            "net.bits": 8561,
            "net.messages": 245,
            "net.non_null_messages": 175,
            "net.size_cache.hit": 226,
            "net.size_cache.miss": 19,
        }

    def test_interned_payloads(self):
        with observing(Observer()) as observer:
            run_protocol(
                eig_agreement_factory(self.CONFIG, [0, 1]),
                self.CONFIG, self.INPUTS,
                adversary=EquivocatingAdversary([6, 7], 0, 1),
                max_rounds=self.CONFIG.t + 2,
                sizer=full_information_sizer(2, self.CONFIG.n),
                seed=3,
            )
        assert self.net_counters(observer) == {
            "net.bits": 2625,
            "net.messages": 105,
            "net.non_null_messages": 105,
            "net.size_cache.hit": 33,
            "net.size_cache.miss": 2,
            "net.interned_size_cache.hit": 66,
            "net.interned_size_cache.miss": 4,
        }


class TestTrace:
    def test_envelopes_and_snapshots_recorded(self):
        config = SystemConfig(n=4, t=1)
        trace = ExecutionTrace()
        _, network = build(config, PassiveAdversary(), trace=trace)
        network.run_round()
        assert len(trace.messages_in_round(1)) == 16
        assert set(trace.snapshots_in_round(1)) == {1, 2, 3, 4}


class Resender(Adversary):
    """Sends the same objects every round: a fixed tuple, a frozenset,
    a list it grows, and a tuple holding that list."""

    def __init__(self, faulty_ids):
        super().__init__(faulty_ids)
        self.grown = [0]
        self.payloads = (
            (1, (2, 3)), frozenset({4}), self.grown, (5, self.grown),
        )

    def outgoing(self, round_number, sender, context):
        self.grown.append(round_number)
        return {
            receiver: self.payloads[receiver % 4]
            for receiver in self.config.process_ids
        }


class TestFaultyTails:
    """A faulty payload's ``send`` tail is computed once per object an
    execution when nothing in it can change, else once a round."""

    def test_fixed_payloads_are_sized_once_mutable_ones_every_round(
        self, monkeypatch, new_log
    ):
        sized = []
        real = network_module._fixed_default_size

        def counting(message):
            sized.append(id(message))
            return real(message)

        monkeypatch.setattr(network_module, "_fixed_default_size", counting)
        config = SystemConfig(n=4, t=1)
        adversary = Resender([4])
        _, network = build(config, adversary)
        log = new_log()
        with observing(Observer(events=log)):
            for _ in range(3):
                network.run_round()
        fixed, frozen, grown, holder = map(id, adversary.payloads)
        assert sorted(sized) == sorted(
            [fixed, frozen] + [grown, holder] * 3
        )
        tails = [
            entry[1:] for record in read_log(log.path)
            if record["kind"] == "send" and record["faulty"]
            for entry in record["messages"]
        ]
        # Round r's grown list holds r + 1 items: its tail is fresh.
        assert [tail for tail in tails if tail[2].startswith("list")] == [
            [8 * size + 2, True, f"list({size})"] for size in (2, 3, 4)
        ]

    def test_fixed_default_size_is_the_default_size(self):
        grown = [1]

        class Loud(int):
            pass

        for message, fixed in [
            ((1, (2, 3)), True), (frozenset({4}), True), (7, True),
            ("x", True), (None, True), (True, True), (0.5, True),
            (float("nan"), False), (Loud(7), False), (BOTTOM, False),
            ([1, 2], False), ((1, grown), False), ({1: (2,)}, False),
        ]:
            assert _fixed_default_size(message) == (
                _default_sizer(message), fixed
            )


def test_a_sizer_s_true_and_1_render_apart(new_log):
    """A user sizer may answer ``True`` for one payload and ``1`` for
    another: equal and equally hashed, yet the log spells them ``true``
    and ``1``, so a memoised tail text must keep them apart."""
    config = SystemConfig(n=4, t=1)
    _, network = build(
        config, PassiveAdversary(),
        sizer=lambda payload: True if payload[0] == 1 else 1,
    )
    log = new_log()
    with observing(Observer(events=log)):
        network.run_round()
    sizes = {
        record["sender"]: {json.dumps(entry[1]) for entry in record["messages"]}
        for record in read_log(log.path) if record["kind"] == "send"
    }
    assert sizes == {1: {"true"}, 2: {"1"}, 3: {"1"}, 4: {"1"}}
    assert network.metrics.total_bits == 4 * config.n


class TestDefaultSizer:
    """The fallback sizer counts every container shape structurally."""

    def test_scalar_leaf(self):
        assert _default_sizer(7) == 8
        assert _default_sizer("x") == 8

    def test_bottom_is_free(self):
        assert _default_sizer(BOTTOM) == 0

    def test_tuple_is_node_plus_components(self):
        assert _default_sizer((1, 2, 3)) == 2 + 3 * 8

    def test_list_not_undercounted_as_scalar(self):
        assert _default_sizer([1, 2, 3]) == _default_sizer((1, 2, 3))

    def test_set_and_frozenset(self):
        assert _default_sizer({1, 2}) == 2 + 2 * 8
        assert _default_sizer(frozenset({1, 2})) == 2 + 2 * 8

    def test_dict_charges_keys_and_values(self):
        assert _default_sizer({1: "a", 2: "b"}) == 2 + 4 * 8

    def test_nested_containers(self):
        assert _default_sizer([(1, 2), [3]]) == 2 + (2 + 16) + (2 + 8)

    def test_bottom_inside_container_is_free(self):
        assert _default_sizer((BOTTOM, 1)) == 2 + 8

    def test_nesting_past_the_recursion_limit_is_just_long(self):
        hostile = nested_tuple(1)
        assert _default_sizer(hostile) == 5000 * 2 + 8
        assert _default_sizer({1: [hostile]}) == 2 + 8 + 2 + 5000 * 2 + 8

    def test_self_containing_container_terminates(self):
        loop = [1]
        loop.append(loop)
        # The back-reference is one leaf: node + leaf 1 + leaf "loop".
        assert _default_sizer(loop) == 2 + 8 + 8
        assert _default_sizer((loop, loop)) == 2 + 2 * 18  # shared, not cyclic

    @pytest.mark.parametrize("pair", [lambda x: (x, x), lambda x: [x, x]])
    def test_shared_children_are_walked_once(self, pair):
        # One object per level standing for a 2 ** 61-leaf tree: sized
        # as that tree (s_0 = 18, s_k = 2 + 2 * s_(k-1)) in 61 walks.
        hostile = pair(0)
        for _ in range(60):
            hostile = pair(hostile)
        assert _default_sizer(hostile) == 20 * 2 ** 60 - 2


class TestHotPathEquivalence:
    """The skip-trace fast path meters exactly like the traced path."""

    def test_metrics_identical_with_and_without_trace(self):
        config = SystemConfig(n=4, t=1)
        _, untraced = build(config, FirstHalfOnly([4]))
        _, traced = build(config, FirstHalfOnly([4]), trace=ExecutionTrace())
        for _ in range(3):
            untraced.run_round()
            traced.run_round()
        assert untraced.metrics.total_bits == traced.metrics.total_bits
        assert (
            untraced.metrics.total_messages == traced.metrics.total_messages
        )

    def test_incoming_maps_identical_with_and_without_trace(self):
        config = SystemConfig(n=4, t=1)
        untraced_procs, untraced = build(config, FirstHalfOnly([4]))
        traced_procs, traced = build(
            config, FirstHalfOnly([4]), trace=ExecutionTrace()
        )
        untraced.run_round()
        traced.run_round()
        for process_id in untraced_procs:
            assert (
                untraced_procs[process_id].rounds
                == traced_procs[process_id].rounds
            )

    def test_incoming_covers_every_sender_slot(self):
        config = SystemConfig(n=4, t=1)
        processes, network = build(config, FirstHalfOnly([4]))
        network.run_round()
        for process in processes.values():
            assert set(process.rounds[0]) == set(config.process_ids)
