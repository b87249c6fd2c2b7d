"""A ``Broadcast`` is delivered once; nothing anyone reads may tell.

``SynchronousNetwork.deliver_round`` measures, meters and lands a
:class:`~repro.runtime.node.Broadcast` burst a single time, and walks a
plain recipient map copy by copy.  The two must be the same execution:
here one protocol runs twice — returning ``broadcast(...)`` and
returning ``dict(broadcast(...))`` — and the pickled result, the
counters and the event log are compared byte for byte, under the
lockstep engine and the asynchronous reference.  The protocol covers the cases the single delivery treats
apart: a faulty destination, a faulty sender (metered and not), an
all-``BOTTOM`` broadcast, and a hash-consed payload.
"""

import dataclasses
import pickle

import pytest

from repro.adversary import EquivocatingAdversary
from repro.arrays.store import shared_store
from repro.avalanche.protocol import avalanche_factory
from repro.obs import Observer, observing
from repro.obs.events import EventLog, read_log
from repro.obs.trace import check_closedness
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, SystemConfig

BACKENDS = ("lockstep", "async")
CONFIG = SystemConfig(n=5, t=1)
INPUTS = {process_id: process_id % 2 for process_id in CONFIG.process_ids}
ROUNDS = 4


class Talker(Process):
    """Round 1 a tuple, round 2 a hash-consed array, round 3 a tuple
    again, round 4 an explicit ``BOTTOM`` to everyone."""

    def payload(self, round_number):
        if round_number == 2:
            row = tuple(self.process_id % 2 for _ in self.config.process_ids)
            return shared_store(self.config.n).intern(row)
        if round_number == ROUNDS:
            return BOTTOM
        return ("beat", round_number, self.process_id)

    def outgoing(self, round_number):
        return broadcast(self.payload(round_number), self.config)

    def receive(self, round_number, incoming):
        if round_number == ROUNDS:
            self.decide(0, round_number)


class PlainTalker(Talker):
    """The same sends, as the recipient map the network walks per copy."""

    def outgoing(self, round_number):
        return dict(super().outgoing(round_number))


def run(talker, **engine_arguments):
    return run_protocol(
        lambda process_id, config, value: talker(process_id, config),
        CONFIG, INPUTS,
        adversary=EquivocatingAdversary([4], 0, 1),
        run_full_rounds=ROUNDS, seed=7,
        **engine_arguments,
    )


def result_bytes(result):
    return pickle.dumps(dataclasses.replace(result, processes={}))


@pytest.mark.parametrize("schedule", BACKENDS, indirect=True)
@pytest.mark.parametrize("meter_adversary", (False, True))
def test_results_pickle_identically(schedule, meter_adversary):
    uniform = run(Talker, meter_adversary=meter_adversary, record_trace=True)
    plain = run(PlainTalker, meter_adversary=meter_adversary,
                record_trace=True)
    assert result_bytes(uniform) == result_bytes(plain)
    # The faulty destination's copies are metered, the BOTTOM round's
    # are not: four correct senders, five copies, three rounds.
    metrics = uniform.metrics
    correct = [metrics.sender_usage(sender).messages for sender in (1, 2, 3, 5)]
    assert correct == [CONFIG.n * (ROUNDS - 1)] * 4
    assert metrics.sender_usage(4).messages == (
        CONFIG.n * ROUNDS if meter_adversary else 0
    )
    # ... so the last round has a row only if the equivocator made it.
    assert metrics.round_usage(ROUNDS).messages == (
        CONFIG.n if meter_adversary else 0
    )
    assert metrics.rounds_used == (ROUNDS if meter_adversary else ROUNDS - 1)


@pytest.mark.parametrize("schedule", BACKENDS, indirect=True)
def test_counters_move_as_if_every_copy_had_asked(schedule):
    counters = {}
    for talker in (Talker, PlainTalker):
        with observing(Observer(spans=False)) as observer:
            run(talker)
        counters[talker] = observer.registry.counters()
    assert counters[Talker] == counters[PlainTalker]
    # Round 2's array is one canonical node per parity: two misses, and
    # a hit for every other copy of the four correct broadcasts.
    assert counters[Talker]["net.interned_size_cache.miss"] == 2
    assert counters[Talker]["net.interned_size_cache.hit"] == 4 * CONFIG.n - 2


@pytest.mark.parametrize("schedule", BACKENDS, indirect=True)
def test_event_logs_are_byte_identical(schedule, tmp_path):
    logs = {}
    for talker in (Talker, PlainTalker):
        path = tmp_path / f"{talker.__name__}.jsonl"
        log = EventLog(path)
        with observing(Observer(events=log, spans=False)):
            run(talker, record_trace=True)
        log.close()
        logs[talker] = path.read_bytes()
    assert logs[Talker] == logs[PlainTalker]
    records = read_log(tmp_path / "Talker.jsonl")
    kinds = {record["kind"] for record in records}
    assert {"send", "counters"} <= kinds
    assert {r["faulty"] for r in records if r["kind"] == "send"} == {
        False, True,
    }
    assert check_closedness(records) == []


def test_avalanche_counters_are_the_per_copy_ones():
    """The literals the per-copy delivery loop produced for this run."""
    config = SystemConfig(n=7, t=2)
    inputs = {process_id: process_id % 2 for process_id in config.process_ids}
    with observing(Observer(spans=False)) as observer:
        run_protocol(
            avalanche_factory(), config, inputs,
            adversary=EquivocatingAdversary([6, 7], 0, 1),
            run_full_rounds=6, seed=5,
        )
    counters = observer.registry.counters()
    assert {
        name: counters[name]
        for name in ("net.messages", "net.bits",
                     "net.size_cache.hit", "net.size_cache.miss")
    } == {
        "net.messages": 105,
        "net.bits": 840,
        "net.size_cache.hit": 98,
        "net.size_cache.miss": 7,
    }
