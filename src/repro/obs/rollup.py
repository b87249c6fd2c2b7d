"""Cross-worker telemetry rollups: ``repro status`` from artifacts.

A long parallel sweep or fuzz campaign streams compact ``rollup``
records — counter deltas per finished chunk / protocol —
through its event log (:meth:`repro.obs.core.Observer.emit_rollup`).
This module reconstructs the state of such a run **from the artifact
alone**: progress against the announced plan, per-worker throughput,
cache hit rates, and the top spans.  It
works equally on a finished log (which ends with the authoritative
``counters`` dump) and on the torn log of a killed run (deltas are
summed; the final partial line is skipped and counted).

``load_status`` accepts everything :func:`repro.obs.events.log_paths`
does: a single JSONL file, a rotated ``.part-N`` sequence, or a
directory of logs.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Tuple, Union

from repro.obs.events import log_paths, read_jsonl_lenient, validate_record
from repro.obs.registry import InstrumentRegistry
from repro.obs.summarize import profile_records


def load_status(
    path: Union[str, pathlib.Path], top_spans: int = 5
) -> Dict[str, Any]:
    """The status of the (possibly in-flight) run recorded at ``path``."""
    records: List[Dict[str, Any]] = []
    skipped = 0
    for part in log_paths(path):
        part_records, part_skipped = read_jsonl_lenient(part)
        records.extend(part_records)
        skipped += part_skipped
    return status_from_records(records, skipped=skipped,
                               top_spans=top_spans)


def status_from_records(
    records: List[Dict[str, Any]],
    skipped: int = 0,
    top_spans: int = 5,
) -> Dict[str, Any]:
    """Reconstruct run status from loaded records.

    The deterministic section (runs, cells, counters, hit rates) comes
    from the deterministic log records; worker throughput and spans
    are wall-clock derived and reported under nondeterministic keys.
    A record that fails :func:`~repro.obs.events.validate_record` is
    counted with ``skipped`` and not read.
    """
    valid = [record for record in records if not validate_record(record)]
    skipped += len(records) - len(valid)
    records = valid
    runs_started = 0
    runs_ended = 0
    serial_cells = 0
    pooled_cells = 0
    chunks = 0
    planned = 0
    rollup_counts: Dict[str, int] = {}
    protocols: List[Dict[str, Any]] = []
    summed: Dict[str, int] = {}
    final_counters: Dict[str, int] = {}
    samples: List[Dict[str, Any]] = []
    pool: Dict[str, Any] = {}
    fuzz: Dict[str, Any] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "run_start":
            runs_started += 1
        elif kind == "run_end":
            runs_ended += 1
        elif kind == "cell_end":
            serial_cells += 1
        elif kind == "chunk":
            chunks += 1
            pooled_cells += int(record.get("cells", 0))
        elif kind == "rollup":
            scope = str(record.get("scope"))
            rollup_counts[scope] = rollup_counts.get(scope, 0) + 1
            cells = int(record.get("cells", 0))
            if scope == "plan":
                planned += cells
            elif scope == "protocol":
                protocols.append(
                    {"index": record.get("index"), "cells": cells}
                )
            for name, delta in record.get("counters", {}).items():
                if isinstance(delta, int):
                    summed[name] = summed.get(name, 0) + delta
        elif kind == "counters":
            final_counters = dict(record.get("counters", {}))
        elif kind == "worker_sample":
            samples.append(record)
        elif kind == "workers":
            # The planned pool size, not the slots that happened to
            # collect a chunk: under load one worker may take them all.
            pool = {
                "workers": record.get("planned"),
                "wall_s": record.get("wall_s"),
                "idle_s": record.get("idle_s"),
            }
        elif kind == "fuzz_campaign":
            fuzz = {
                "seed": record.get("seed"),
                "executions": record.get("executions"),
                "failures": record.get("failures"),
                "shrunk": record.get("shrunk"),
            }
    complete = bool(final_counters)
    counters = (
        final_counters if complete
        else {name: summed[name] for name in sorted(summed)}
    )
    registry = InstrumentRegistry()
    registry.absorb(counters)
    hit_rates = {
        cache: {"rate": round(rate, 4), "hits": hits, "misses": misses}
        for cache, (rate, hits, misses) in registry.hit_rates().items()
    }
    workers: Dict[int, Dict[str, Any]] = {}
    for sample in samples:
        slot = int(sample.get("worker", 0))
        entry = workers.setdefault(
            slot, {"worker": slot, "chunks": 0, "cells": 0, "busy_s": 0.0}
        )
        entry["chunks"] += 1
        entry["cells"] += int(sample.get("cells", 0))
        entry["busy_s"] = round(
            entry["busy_s"] + float(sample.get("busy_s", 0.0)), 6
        )
    worker_rows: List[Dict[str, Any]] = []
    for slot in sorted(workers):
        entry = workers[slot]
        busy = entry["busy_s"]
        entry["cells_per_s"] = (
            round(entry["cells"] / busy, 1) if busy > 0 else None
        )
        worker_rows.append(entry)
    profile = profile_records(records)
    spans = sorted(
        profile["spans"].items(),
        key=lambda item: (-float(item[1]["total_s"]), item[0]),
    )[:top_spans]
    return {
        "phase": "complete" if complete else "in-flight",
        "records": len(records),
        "skipped_lines": skipped,
        "runs": {"started": runs_started, "ended": runs_ended},
        "cells": {
            "planned": planned,
            "pooled": pooled_cells,
            "serial": serial_cells,
            "done": pooled_cells + serial_cells,
        },
        # serial cells belong to no plan: progress is pooled over planned
        "progress": (
            round(pooled_cells / planned, 4) if planned > 0 else None
        ),
        "chunks": chunks,
        "rollups": {
            scope: rollup_counts[scope] for scope in sorted(rollup_counts)
        },
        "protocols": protocols,
        "counters": counters,
        "hit_rates": hit_rates,
        "fuzz": fuzz or None,
        "pool": pool or None,
        "workers": worker_rows,
        "top_spans": [
            {
                "span": path,
                "count": stats["count"],
                "total_s": stats["total_s"],
            }
            for path, stats in spans
        ],
    }


def render_status(status: Dict[str, Any]) -> str:
    """Aligned-text form of :func:`status_from_records`.

    Deterministic given the loaded records: rendering does no clock or
    filesystem reads, so the same artifact always prints the same
    bytes (pinned by ``tests/obs/``).
    """
    lines: List[str] = []
    phase = status["phase"]
    torn = status["skipped_lines"]
    suffix = f"  ({torn} torn line(s) skipped)" if torn else ""
    lines.append(f"status: {phase}{suffix}")
    runs = status["runs"]
    lines.append(
        f"runs: started {runs['started']}  ended {runs['ended']}"
    )
    cells = status["cells"]
    progress = status["progress"]
    progress_text = (
        f"  progress {progress * 100:.1f}%" if progress is not None else ""
    )
    lines.append(
        f"cells: done {cells['done']}  "
        f"pooled {cells['pooled']} of planned {cells['planned']}"
        f"{progress_text}  serial {cells['serial']}"
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
    if status["workers"] or status["pool"]:
        lines.append("")
        lines.append("per-worker throughput (nondeterministic):")
        for entry in status["workers"]:
            rate = entry.get("cells_per_s")
            rate_text = f"  {rate} cells/s" if rate is not None else ""
            lines.append(
                f"  worker {entry['worker']}: chunks {entry['chunks']}  "
                f"cells {entry['cells']}  busy {entry['busy_s']}s"
                f"{rate_text}"
            )
        pool = status["pool"]
        if pool:
            lines.append(
                f"  pool: {pool['workers']} worker(s), "
                f"wall {pool['wall_s']}s, idle {pool['idle_s']}s"
            )
    if status["top_spans"]:
        lines.append("")
        lines.append("top spans (nondeterministic):")
        for entry in status["top_spans"]:
            lines.append(
                f"  {entry['span']}: {entry['total_s']}s "
                f"x{entry['count']}"
            )
    return "\n".join(lines)


__all__ = ["load_status", "render_status", "status_from_records"]
