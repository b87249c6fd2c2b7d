"""Trace persistence: to_jsonl / from_jsonl structural round-trips."""

import json

import pytest

from repro.adversary import EquivocatingAdversary
from repro.agreement.crusader import SENDER_FAULTY, crusader_factory
from repro.arrays.store import MAX_DEPTH
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.runtime.engine import run_protocol
from repro.runtime.message import Envelope
from repro.runtime.trace import TRACE_FORMAT_VERSION, ExecutionTrace


def assert_roundtrips(trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    reloaded = ExecutionTrace.from_jsonl(path)
    assert reloaded.envelopes == trace.envelopes
    assert reloaded.rounds == trace.rounds
    for round_number in trace.rounds:
        assert reloaded.snapshots_in_round(
            round_number
        ) == trace.snapshots_in_round(round_number)
    return path


class TestRoundTrips:
    def test_avalanche_trace(self, config4, tmp_path):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_protocol(
            avalanche_factory(), config4, inputs,
            adversary=EquivocatingAdversary([4], 0, 1),
            run_full_rounds=3, record_trace=True,
        )
        assert_roundtrips(result.trace, tmp_path)

    def test_compact_ba_trace(self, config4, tmp_path):
        # exercises the CompactPayload and interned-array codec paths
        result = run_compact_byzantine_agreement(
            config4, {1: 1, 2: 0, 3: 1, 4: 0}, value_alphabet=[0, 1],
            k=2, adversary=EquivocatingAdversary([4], 0, 1),
            record_trace=True,
        )
        path = assert_roundtrips(result.trace, tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"kind": "trace", "v": TRACE_FORMAT_VERSION}

    def test_crusader_trace(self, config4, tmp_path):
        # SENDER_FAULTY sits in the deciders' snapshots: the codec
        # once hand-listed three of the five sentinels and raised here.
        result = run_protocol(
            crusader_factory(source=4), config4,
            {p: 0 for p in config4.process_ids},
            adversary=EquivocatingAdversary([4], 0, 1),
            max_rounds=2, record_trace=True,
        )
        assert result.decisions == {1: 0, 2: 0, 3: SENDER_FAULTY}
        path = assert_roundtrips(result.trace, tmp_path)
        assert '{"$": "sender-faulty"}' in path.read_text()

    def test_reloaded_trace_serves_queries(self, config4, tmp_path):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_protocol(
            avalanche_factory(), config4, inputs,
            run_full_rounds=2, record_trace=True,
        )
        path = tmp_path / "trace.jsonl"
        result.trace.to_jsonl(path)
        reloaded = ExecutionTrace.from_jsonl(path)
        assert reloaded.messages_in_round(1) == result.trace.messages_in_round(1)
        assert reloaded.messages_from(1) == result.trace.messages_from(1)
        assert reloaded.snapshot(1, 2) == result.trace.snapshot(1, 2)


class TestMalformedFiles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace file"):
            ExecutionTrace.from_jsonl(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "events", "v": 1}\n')
        with pytest.raises(ValueError, match="not a version-1 trace file"):
            ExecutionTrace.from_jsonl(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trace", "v": 99}\n')
        with pytest.raises(ValueError, match="not a version-1 trace file"):
            ExecutionTrace.from_jsonl(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "trace", "v": 1}\n{"kind": "mystery"}\n'
        )
        with pytest.raises(ValueError, match="unknown trace record"):
            ExecutionTrace.from_jsonl(path)

    @staticmethod
    def envelope_line(payload_json):
        return (
            '{"kind": "envelope", "sender": 1, "receiver": 2, "round": 1, '
            f'"payload": {payload_json}}}\n'
        )

    @pytest.mark.parametrize(
        "line",
        [
            "{not json\n",
            '{"kind": "envelope", "sender": 1}\n',
            '{"kind": "snapshot", "round": 1, "process": 1, '
            '"state": {"?": 0}}\n',
            "[1, 2]\n",
        ],
    )
    def test_undecodable_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "trace", "v": 1}\n' + line)
        with pytest.raises(ValueError):
            ExecutionTrace.from_jsonl(path)

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 900])
    def test_over_deep_line(self, tmp_path, depth):
        # Past MAX_DEPTH the codec refuses; far past it the JSON parser
        # itself hits the recursion limit.  Either is the ValueError.
        path = tmp_path / "deep.jsonl"
        nested = '{"t": [' * depth + "0" + "]}" * depth
        path.write_text(
            '{"kind": "trace", "v": 1}\n' + self.envelope_line(nested)
        )
        with pytest.raises(ValueError, match="line 2"):
            ExecutionTrace.from_jsonl(path)


class TestFailedWrites:
    """A trace the codec refuses leaves no file behind: a partial one
    would load without error and look like the whole execution."""

    @staticmethod
    def nested(depth):
        value = 0
        for _ in range(depth):
            value = (value,)
        return value

    def test_deepest_encodable_payload_round_trips(self, tmp_path):
        trace = ExecutionTrace()
        trace.record_envelope(Envelope(1, 2, 1, self.nested(MAX_DEPTH)))
        assert_roundtrips(trace, tmp_path)

    def test_over_deep_payload_raises_type_error_and_writes_nothing(
        self, tmp_path
    ):
        trace = ExecutionTrace()
        trace.record_envelope(Envelope(1, 2, 1, 0))
        trace.record_envelope(Envelope(1, 2, 1, self.nested(5000)))
        path = tmp_path / "deep.jsonl"
        with pytest.raises(TypeError, match="levels deep"):
            trace.to_jsonl(path)
        assert list(tmp_path.iterdir()) == []

    def test_malformed_adversary_run_leaves_no_trace_file(self, tmp_path):
        # `malformed` sends a bare object(), which the codec refuses
        # after ten envelopes are already encoded.
        from repro.cli import main

        events = tmp_path / "m.jsonl"
        assert main([
            "run-ba", "--t", "1", "--adversary", "malformed",
            "--events", str(events),
        ]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "m.jsonl"
        ]
