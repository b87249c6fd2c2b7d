"""Trace persistence: a result's checkpoint form carries the trace whole.

:class:`ExecutionTrace` is an in-memory recorder; it persists by
pickling, with the rest of the result minus its live processes.  A
reloaded trace must compare equal to the recorded one — interned
arrays, compact payloads and sentinels included — so a saved
execution can be re-verified offline.
"""

import dataclasses
import pickle

from repro.adversary import EquivocatingAdversary
from repro.agreement.crusader import SENDER_FAULTY, crusader_factory
from repro.arrays.store import MAX_DEPTH
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.runtime.engine import run_protocol
from repro.runtime.message import Envelope
from repro.runtime.trace import ExecutionTrace


def assert_roundtrips(result, tmp_path):
    """Save ``result``, reload it, and return the reloaded result."""
    path = tmp_path / "result.pkl"
    path.write_bytes(pickle.dumps(dataclasses.replace(result, processes={})))
    reloaded = pickle.loads(path.read_bytes())
    trace = result.trace
    assert reloaded.trace.envelopes == trace.envelopes
    assert reloaded.trace.rounds == trace.rounds
    for round_number in trace.rounds:
        assert reloaded.trace.snapshots_in_round(
            round_number
        ) == trace.snapshots_in_round(round_number)
    return reloaded


class TestRoundTrips:
    def test_avalanche_trace(self, config4, tmp_path):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_protocol(
            avalanche_factory(), config4, inputs,
            adversary=EquivocatingAdversary([4], 0, 1),
            run_full_rounds=3, record_trace=True,
        )
        assert_roundtrips(result, tmp_path)

    def test_compact_ba_trace(self, config4, tmp_path):
        # CompactPayload envelopes and interned-array snapshots
        result = run_compact_byzantine_agreement(
            config4, {1: 1, 2: 0, 3: 1, 4: 0}, value_alphabet=[0, 1],
            k=2, adversary=EquivocatingAdversary([4], 0, 1),
            record_trace=True,
        )
        assert_roundtrips(result, tmp_path)

    def test_crusader_trace(self, config4, tmp_path):
        # SENDER_FAULTY sits in the deciders' snapshots and reloads as
        # the same object.
        result = run_protocol(
            crusader_factory(source=4), config4,
            {p: 0 for p in config4.process_ids},
            adversary=EquivocatingAdversary([4], 0, 1),
            max_rounds=2, record_trace=True,
        )
        assert result.decisions == {1: 0, 2: 0, 3: SENDER_FAULTY}
        reloaded = assert_roundtrips(result, tmp_path)
        assert reloaded.decisions[3] is SENDER_FAULTY

    def test_reloaded_trace_serves_queries(self, config4, tmp_path):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_protocol(
            avalanche_factory(), config4, inputs,
            run_full_rounds=2, record_trace=True,
        )
        reloaded = assert_roundtrips(result, tmp_path).trace
        assert reloaded.messages_in_round(1) == result.trace.messages_in_round(1)
        assert reloaded.messages_from(1) == result.trace.messages_from(1)
        assert reloaded.snapshot(1, 2) == result.trace.snapshot(1, 2)


class TestFailedWrites:
    @staticmethod
    def nested(depth):
        value = 0
        for _ in range(depth):
            value = (value,)
        return value

    def test_deepest_encodable_payload_round_trips(self, config4, tmp_path):
        result = run_protocol(
            avalanche_factory(), config4,
            {p: p % 2 for p in config4.process_ids}, run_full_rounds=1,
        )
        trace = ExecutionTrace()
        trace.record_envelope(Envelope(1, 2, 1, self.nested(MAX_DEPTH)))
        assert_roundtrips(dataclasses.replace(result, trace=trace), tmp_path)

    def test_malformed_adversary_run_leaves_no_trace_file(self, tmp_path):
        # `malformed` sends a bare object(); an events run writes the
        # event log and nothing beside it.
        from repro.cli import main

        events = tmp_path / "m.jsonl"
        assert main([
            "run-ba", "--t", "1", "--adversary", "malformed",
            "--events", str(events),
        ]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "m.jsonl"
        ]
