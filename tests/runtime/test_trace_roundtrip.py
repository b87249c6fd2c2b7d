"""Trace persistence: to_jsonl / from_jsonl structural round-trips."""

import json

import pytest

from repro.adversary import EquivocatingAdversary
from repro.agreement.crusader import SENDER_FAULTY, crusader_factory
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.runtime.engine import run_protocol
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
