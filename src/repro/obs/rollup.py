"""The one reader of a recorded run: ``repro status``.

:func:`status_from_records` folds an event log
(:mod:`repro.obs.events`) once into a JSON-ready report with two
sections:

- **deterministic** — records, runs, decisions, sends and
  corruptions, cells against the announced plan, per-round traffic,
  counters and cache hit rates, progress, fuzz protocols and the
  campaign summary.  Folding the same log twice, or logs of identical
  runs recorded in fresh processes, gives the same values;
- **wall clock** — every span path's count / total / max, the gauges,
  every pool run and the per-worker throughput rows, read from the
  log's ``"nondeterministic": true`` records.

It works equally on a finished log (which ends with the authoritative
``counters`` dump) and on the torn log of a killed run: the counters
are then the summed ``rollup`` deltas, and every line that does not
parse, record that fails the schema or step that does not advance the
logical clock is skipped and named under ``degraded``, beside any
``sweep.pool.degraded`` fallback.

``load_status`` accepts everything :func:`repro.obs.events.log_paths`
does: a single JSONL file, a rotated ``.part-N`` sequence, or a
directory of logs.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Sequence, Union

from repro.obs.events import scan_log, validate_record
from repro.obs.registry import InstrumentRegistry


def load_status(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """The status of the (possibly in-flight) run recorded at ``path``."""
    records, skipped = scan_log(path)
    return status_from_records(records, skipped)


def status_from_records(
    records: List[Dict[str, Any]],
    skipped: Sequence[str] = (),
) -> Dict[str, Any]:
    """The report of one recorded run, in one pass over its records.

    ``skipped`` names lines the loader could not parse; a record that
    fails :func:`~repro.obs.events.validate_record`, or whose ``step``
    does not advance the log's logical clock, is named beside them and
    not read.
    """
    degraded = list(skipped)
    valid = 0
    last_step = -1
    runs_started = runs_ended = decisions = sends = corruptions = 0
    serial = held = falsified = pooled = chunks = planned = 0
    per_round: Dict[int, Dict[str, int]] = {}
    rollup_counts: Dict[str, int] = {}
    protocols: List[Dict[str, Any]] = []
    summed: Dict[str, int] = {}
    final_counters: Dict[str, int] = {}
    fuzz: Dict[str, Any] = {}
    spans: Dict[str, Dict[str, Any]] = {}
    gauges: Dict[str, float] = {}
    pools: List[Dict[str, Any]] = []
    workers: Dict[int, Dict[str, Any]] = {}
    for index, record in enumerate(records):
        problems = validate_record(record)
        step = record.get("step")
        if type(step) is int:
            if not problems and step <= last_step:
                problems = [
                    f"step {step} does not advance the logical clock "
                    f"(previous {last_step})"
                ]
            last_step = step
        if problems:
            degraded.append(f"record {index}: {problems[0]}")
            continue
        valid += 1
        kind = record["kind"]
        if kind == "run_start":
            runs_started += 1
        elif kind == "run_end":
            runs_ended += 1
        elif kind == "decide":
            decisions += 1
        elif kind == "send":
            # One record per burst; the counts stay per message.
            if record["faulty"]:
                corruptions += len(record["messages"])
            else:
                sends += len(record["messages"])
        elif kind == "round_end":
            row = per_round.setdefault(
                record["round"],
                {"rounds": 0, "messages": 0, "non_null": 0, "bits": 0},
            )
            row["rounds"] += 1
            row["messages"] += record["messages"]
            row["non_null"] += record["non_null"]
            row["bits"] += record["bits"]
        elif kind == "cell_end":
            serial += 1
            if record["holds"] is True:
                held += 1
            elif record["holds"] is False:
                falsified += 1
        elif kind == "chunk":
            chunks += 1
            pooled += record["cells"]
        elif kind == "rollup":
            scope = record["scope"]
            rollup_counts[scope] = rollup_counts.get(scope, 0) + 1
            if scope == "plan":
                planned += record["cells"]
            elif scope == "protocol":
                protocols.append(
                    {"index": record["index"], "cells": record["cells"]}
                )
            for name, delta in record["counters"].items():
                if isinstance(delta, int):
                    summed[name] = summed.get(name, 0) + delta
        elif kind == "counters":
            final_counters = dict(record["counters"])
        elif kind == "fuzz_campaign":
            fuzz = {
                field: record[field]
                for field in ("seed", "executions", "failures", "shrunk")
            }
        elif kind == "profile":
            for path, stats in record["spans"].items():
                merged = spans.setdefault(
                    path, {"count": 0, "total_s": 0.0, "max_s": 0.0}
                )
                merged["count"] += stats["count"]
                merged["total_s"] = round(
                    merged["total_s"] + stats["total_s"], 6
                )
                merged["max_s"] = max(merged["max_s"], stats["max_s"])
            gauges.update(record["gauges"])
        elif kind == "workers":
            # The planned pool size, not the slots that happened to
            # collect a chunk: under load one worker may take them all.
            pools.append(
                {
                    "planned": record["planned"],
                    "wall_s": record["wall_s"],
                    "idle_s": record["idle_s"],
                    "workers": record["workers"],
                }
            )
        elif kind == "worker_sample":
            slot = record["worker"]
            entry = workers.setdefault(
                slot,
                {"worker": slot, "chunks": 0, "cells": 0, "busy_s": 0.0},
            )
            entry["chunks"] += 1
            entry["cells"] += record["cells"]
            entry["busy_s"] = round(entry["busy_s"] + record["busy_s"], 6)
    skipped_lines = len(degraded)
    complete = bool(final_counters)
    counters = (
        final_counters if complete
        else {name: summed[name] for name in sorted(summed)}
    )
    if counters.get("sweep.pool.degraded"):
        degraded.append(
            f"sweep.pool.degraded = {counters['sweep.pool.degraded']}"
        )
    registry = InstrumentRegistry()
    registry.absorb(counters)
    hit_rates = {
        cache: {"rate": round(rate, 4), "hits": hits, "misses": misses}
        for cache, (rate, hits, misses) in registry.hit_rates().items()
    }
    worker_rows = []
    for slot in sorted(workers):
        entry = workers[slot]
        busy = entry["busy_s"]
        entry["cells_per_s"] = (
            round(entry["cells"] / busy, 1) if busy > 0 else None
        )
        worker_rows.append(entry)
    return {
        "phase": "complete" if complete else "in-flight",
        "records": valid,
        "skipped_lines": skipped_lines,
        "degraded": degraded,
        "runs": {"started": runs_started, "ended": runs_ended},
        "decisions": decisions,
        "sends": sends,
        "corruptions": corruptions,
        "cells": {
            "planned": planned,
            "pooled": pooled,
            "serial": serial,
            "done": pooled + serial,
            "held": held,
            "falsified": falsified,
        },
        # serial cells belong to no plan: progress is pooled over planned
        "progress": round(pooled / planned, 4) if planned > 0 else None,
        "chunks": chunks,
        "rollups": {
            scope: rollup_counts[scope] for scope in sorted(rollup_counts)
        },
        "protocols": protocols,
        "per_round": {
            str(round_number): per_round[round_number]
            for round_number in sorted(per_round)
        },
        "counters": counters,
        "hit_rates": hit_rates,
        "fuzz": fuzz or None,
        # the wall-clock section
        "spans": {path: spans[path] for path in sorted(spans)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "pools": pools,
        "workers": worker_rows,
    }


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(header.ljust(widths[column])
                  for column, header in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[column] for column in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[column])
                      for column, cell in enumerate(row)).rstrip()
        )
    return lines


def render_status(status: Dict[str, Any]) -> str:
    """Aligned-text form of :func:`status_from_records`.

    Deterministic given the loaded records: rendering does no clock or
    filesystem reads, so the same artifact always prints the same
    bytes (pinned by ``tests/obs/``).
    """
    phase = status["phase"]
    lines = [f"status: {phase}"]
    if status["degraded"]:
        lines.append("degraded: " + "; ".join(status["degraded"]))
    runs = status["runs"]
    lines.append(
        f"records: {status['records']}  runs: started {runs['started']}  "
        f"ended {runs['ended']}  decisions: {status['decisions']}  "
        f"sends: {status['sends']}  corruptions: {status['corruptions']}"
    )
    cells = status["cells"]
    progress = status["progress"]
    progress_text = (
        f"  progress {progress * 100:.1f}%" if progress is not None else ""
    )
    lines.append(
        f"cells: done {cells['done']}  "
        f"pooled {cells['pooled']} of planned {cells['planned']}"
        f"{progress_text}  serial {cells['serial']}  "
        f"held {cells['held']}  falsified {cells['falsified']}"
    )
    if status["chunks"]:
        lines.append(f"chunks: {status['chunks']}")
    if status["protocols"]:
        summary = "  ".join(
            f"protocol[{entry['index']}]={entry['cells']}"
            for entry in status["protocols"]
        )
        lines.append(f"fuzz protocols: {summary}")
    fuzz = status["fuzz"]
    if fuzz:
        lines.append(
            f"fuzz campaign: seed {fuzz['seed']}  "
            f"executions {fuzz['executions']}  "
            f"failures {fuzz['failures']}  shrunk {fuzz['shrunk']}"
        )
    if status["per_round"]:
        lines.append("")
        lines.append("per-round traffic (summed across runs):")
        rows = [
            [number, str(row["messages"]), str(row["non_null"]),
             str(row["bits"])]
            for number, row in status["per_round"].items()
        ]
        lines.extend(_table(["round", "messages", "non-null", "bits"], rows))
    if status["hit_rates"]:
        lines.append("")
        source = (
            "final dump" if phase == "complete" else "summed rollup deltas"
        )
        lines.append(f"cache hit rates ({source}):")
        for cache, stats in status["hit_rates"].items():
            lines.append(
                f"  {cache}: {stats['rate']:.2%} "
                f"({stats['hits']} hits, {stats['misses']} misses)"
            )
    if status["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, value in status["counters"].items():
            lines.append(f"  {name} = {value}")
    if status["spans"]:
        lines.append("")
        lines.append("span profile (nondeterministic wall time):")
        ordered = sorted(
            status["spans"].items(),
            key=lambda item: (-item[1]["total_s"], item[0]),
        )
        rows = [
            [path, str(stats["count"]), f"{stats['total_s']:.6f}",
             f"{stats['max_s']:.6f}"]
            for path, stats in ordered
        ]
        lines.extend(_table(["span", "count", "total_s", "max_s"], rows))
    if status["gauges"]:
        lines.append("")
        lines.append("gauges (nondeterministic):")
        for name, value in status["gauges"].items():
            lines.append(f"  {name} = {value}")
    pools = status["pools"]
    if status["workers"] or pools:
        lines.append("")
        lines.append("per-worker throughput (nondeterministic):")
        for entry in status["workers"]:
            rate = entry["cells_per_s"]
            rate_text = f"  {rate} cells/s" if rate is not None else ""
            lines.append(
                f"  worker {entry['worker']}: chunks {entry['chunks']}  "
                f"cells {entry['cells']}  busy {entry['busy_s']}s"
                f"{rate_text}"
            )
        for pool in pools:
            lines.append(
                f"  pool: {pool['planned']} worker(s), "
                f"wall {pool['wall_s']}s, idle {pool['idle_s']}s"
            )
        if len(pools) > 1:
            wall = round(sum(pool["wall_s"] for pool in pools), 6)
            idle = round(sum(pool["idle_s"] for pool in pools), 6)
            lines.append(
                f"  pools: {len(pools)} run(s), wall {wall}s, "
                f"idle {idle}s in total"
            )
    return "\n".join(lines)


__all__ = ["load_status", "render_status", "status_from_records"]
