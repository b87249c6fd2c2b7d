"""Exporter: event logs to Chrome-trace/Perfetto.

:func:`chrome_trace` translates a recorded event log
(:mod:`repro.obs.events`) into the Chrome Trace Event Format (the JSON
``{"traceEvents": [...]}`` shape Perfetto and ``chrome://tracing``
ingest).  Each recorded run becomes a process; its rounds become
slices on a dedicated "rounds" track, each processor gets its own
thread track, and every message a ``send`` record lands at a correct
receiver (:func:`repro.obs.trace.burst_edges`) becomes a flow event
(``ph: s``/``f``) arrow from sender to receiver.  Timestamps are the
**logical clock** — one microsecond per ``step`` — so the rendering is
deterministic and diffable, not a wall-time profile.  The merged span
profile (:func:`repro.obs.rollup.status_from_records`) is laid out as
a flame graph under its own process; that half *is* wall-time derived.

:func:`validate_chrome_trace` is the schema gate CI runs over the
exported artifact before upload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.obs.rollup import status_from_records
from repro.obs.trace import burst_edges

#: Synthetic pid hosting the span flame graph (far above any run id).
SPAN_PID = 10_000


def _meta(pid: int, tid: int, name: str, which: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": which,
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": {"name": name},
    }


def _span_flame(spans: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Synthesize X slices laying the merged span tree out as a flame.

    Span profiles are aggregates (count/total/max per path), not
    intervals, so the layout is synthetic: children are placed
    sequentially from their parent's start, with one microsecond per
    recorded second.  Lexicographic path order guarantees a parent is
    laid out before any of its children.
    """
    events: List[Dict[str, Any]] = []
    cursors: Dict[str, float] = {"": 0.0}
    for path in sorted(spans):
        stats = spans[path]
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        if parent not in cursors:
            # Child recorded without its parent path: treat as a root.
            parent = ""
        start = cursors[parent]
        duration = float(stats["total_s"]) * 1e6
        cursors[parent] = start + duration
        cursors[path] = start
        events.append(
            {
                "ph": "X",
                "name": path.rsplit("/", 1)[-1],
                "cat": "span",
                "pid": SPAN_PID,
                "tid": 0,
                "ts": round(start, 3),
                "dur": round(duration, 3),
                "args": {
                    "path": path,
                    "count": stats["count"],
                    "total_s": stats["total_s"],
                    "max_s": stats["max_s"],
                },
            }
        )
    return events


def chrome_trace(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome Trace Event Format JSON for one recorded log."""
    events: List[Dict[str, Any]] = []
    pid = 0
    run_id = ""
    run_start: Dict[str, Any] = {}
    round_open_step = 0
    threads_seen: Set[Tuple[int, int]] = set()
    flow_id = 0

    def thread(tid: int, name: str) -> None:
        if (pid, tid) not in threads_seen:
            threads_seen.add((pid, tid))
            events.append(_meta(pid, tid, name, "thread_name"))

    for record in records:
        kind = record.get("kind")
        step = record.get("step", 0)
        if kind == "run_start":
            run_id = str(record.get("run"))
            run_start = record
            pid = int(run_id[1:]) if run_id[1:].isdigit() else pid + 1
            events.append(
                _meta(
                    pid, 0,
                    f"run {run_id}: n={record['n']} t={record['t']} "
                    f"{record['adversary']}",
                    "process_name",
                )
            )
            thread(0, "rounds")
        elif kind == "round_start":
            round_open_step = step
        elif kind == "round_end":
            events.append(
                {
                    "ph": "X",
                    "name": f"round {record['round']}",
                    "cat": "round",
                    "pid": pid,
                    "tid": 0,
                    "ts": round_open_step,
                    "dur": max(step - round_open_step, 1),
                    "args": {
                        "messages": record["messages"],
                        "non_null": record["non_null"],
                        "bits": record["bits"],
                    },
                }
            )
        elif kind == "send":
            sender = record["sender"]
            for receiver, bits, non_null in burst_edges(record, run_start):
                thread(sender, f"p{sender}")
                thread(receiver, f"p{receiver}")
                flow_id += 1
                args = {
                    "bits": bits,
                    "non_null": non_null,
                    "faulty": record["faulty"],
                    "round": record["round"],
                }
                events.append(
                    {
                        "ph": "X", "name": f"send->{receiver}",
                        "cat": "deliver", "pid": pid, "tid": sender,
                        "ts": step, "dur": 1, "args": args,
                    }
                )
                events.append(
                    {
                        "ph": "X", "name": f"recv<-{sender}",
                        "cat": "deliver", "pid": pid, "tid": receiver,
                        "ts": step, "dur": 1, "args": args,
                    }
                )
                events.append(
                    {
                        "ph": "s", "name": "deliver", "cat": "deliver",
                        "id": flow_id, "pid": pid, "tid": sender,
                        "ts": step,
                    }
                )
                events.append(
                    {
                        "ph": "f", "bp": "e", "name": "deliver",
                        "cat": "deliver", "id": flow_id, "pid": pid,
                        "tid": receiver, "ts": step,
                    }
                )
        elif kind == "state":
            process = record["process"]
            thread(process, f"p{process}")
            events.append(
                {
                    "ph": "X", "name": "state", "cat": "state",
                    "pid": pid, "tid": process, "ts": step, "dur": 1,
                    "args": {"summary": record["summary"]},
                }
            )
        elif kind == "decide":
            process = record["process"]
            thread(process, f"p{process}")
            events.append(
                {
                    "ph": "i", "s": "t",
                    "name": f"decide={record['value']!r}",
                    "cat": "decide", "pid": pid, "tid": process,
                    "ts": step,
                }
            )

    spans = status_from_records(records)["spans"]
    if spans:
        events.append(_meta(SPAN_PID, 0, "span profile", "process_name"))
        events.append(_meta(SPAN_PID, 0, "spans", "thread_name"))
        events.extend(_span_flame(spans))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "logical step (1 step = 1us)"},
    }


#: Required fields per Chrome-trace phase (beyond ``ph`` itself).
_PH_FIELDS: Dict[str, Tuple[str, ...]] = {
    "M": ("name", "pid", "args"),
    "X": ("name", "pid", "tid", "ts", "dur"),
    "i": ("name", "pid", "tid", "ts", "s"),
    "s": ("name", "id", "pid", "tid", "ts"),
    "f": ("name", "id", "pid", "tid", "ts", "bp"),
}


def validate_chrome_trace(payload: Any) -> List[str]:
    """Schema problems with an exported Chrome trace (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' missing or not a list"]
    flow_starts: Dict[Any, int] = {}
    flow_ends: Dict[Any, int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or ph not in _PH_FIELDS:
            problems.append(f"event {index}: unknown phase {ph!r}")
            continue
        for field in _PH_FIELDS[ph]:
            if field not in event:
                problems.append(
                    f"event {index}: ph={ph} missing field {field!r}"
                )
        if ph == "s":
            flow_starts[event.get("id")] = (
                flow_starts.get(event.get("id"), 0) + 1
            )
        elif ph == "f":
            flow_ends[event.get("id")] = (
                flow_ends.get(event.get("id"), 0) + 1
            )
    for flow, count in sorted(flow_starts.items(), key=repr):
        if flow_ends.get(flow, 0) != count:
            problems.append(
                f"flow {flow!r}: {count} start(s), "
                f"{flow_ends.get(flow, 0)} finish(es)"
            )
    for flow in sorted(set(flow_ends) - set(flow_starts), key=repr):
        problems.append(f"flow {flow!r}: finish without start")
    return problems


__all__ = [
    "SPAN_PID",
    "chrome_trace",
    "validate_chrome_trace",
]
