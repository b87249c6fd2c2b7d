"""The Chrome-trace exporter and its schema gate."""

import json

from repro.adversary import EquivocatingAdversary
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.obs import Observer, observing
from repro.obs.events import read_log
from repro.obs.export import SPAN_PID, chrome_trace, validate_chrome_trace

from tests.obs.causal_dag import build_dags


def traced_records(log, config4):
    with observing(Observer(events=log)):
        run_compact_byzantine_agreement(
            config4,
            {1: 1, 2: 0, 3: 1, 4: 0},
            value_alphabet=[0, 1],
            k=2,
            adversary=EquivocatingAdversary([4], 0, 1),
        )
    return read_log(log.path)


class TestChromeTrace:
    def test_export_validates_against_the_schema(self, config4, new_log):
        payload = chrome_trace(traced_records(new_log(), config4))
        assert validate_chrome_trace(payload) == []

    def test_runs_become_processes_and_rounds_a_track(self, config4, new_log):
        events = chrome_trace(traced_records(new_log(), config4))["traceEvents"]
        names = [
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert any(name.startswith("run r1") for name in names)
        rounds = [e for e in events if e.get("cat") == "round"]
        assert rounds
        assert all(e["tid"] == 0 and e["ph"] == "X" for e in rounds)

    def test_deliver_edges_become_balanced_flow_pairs(self, config4, new_log):
        events = chrome_trace(traced_records(new_log(), config4))["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert starts
        assert len(starts) == len(ends)
        (dag,) = build_dags(traced_records(new_log(), config4))
        assert len(starts) == len(dag.deliver_edges())
        assert all(e["bp"] == "e" for e in ends)

    def test_timestamps_are_the_logical_clock(self, config4, new_log):
        records = traced_records(new_log(), config4)
        events = chrome_trace(records)["traceEvents"]
        max_step = max(r["step"] for r in records)
        run_events = [
            e for e in events if e["ph"] != "M" and e["pid"] != SPAN_PID
        ]
        assert all(0 <= e["ts"] <= max_step for e in run_events)

    def test_span_flame_lives_under_its_own_pid(self, config4, new_log):
        events = chrome_trace(traced_records(new_log(), config4))["traceEvents"]
        flame = [
            e for e in events
            if e["pid"] == SPAN_PID and e["ph"] == "X"
        ]
        assert flame
        # a child span is laid out inside its parent's extent
        by_path = {e["args"]["path"]: e for e in flame}
        for path, event in by_path.items():
            if "/" not in path:
                continue
            parent = by_path.get(path.rsplit("/", 1)[0])
            if parent is None:
                continue
            assert event["ts"] >= parent["ts"]

    def test_export_is_deterministic_for_the_same_records(self, config4, new_log):
        records = traced_records(new_log(), config4)
        first = json.dumps(chrome_trace(records), sort_keys=True)
        second = json.dumps(chrome_trace(records), sort_keys=True)
        assert first == second

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) == ["payload is not a JSON object"]
        assert validate_chrome_trace({}) == [
            "'traceEvents' missing or not a list"
        ]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x"}]}
        )
        assert any("missing field" in p for p in problems)
        problems = validate_chrome_trace(
            {"traceEvents": [
                {"ph": "s", "name": "d", "id": 1, "pid": 1, "tid": 1,
                 "ts": 0},
            ]}
        )
        assert any("finish" in p for p in problems)

