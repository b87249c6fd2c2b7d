"""Offline queries over recorded event logs: summarize and profile.

These are the analysis halves of ``repro events summarize`` and
``repro events profile``.  Both consume a list of event-log records
(see :mod:`repro.obs.events`) and build a JSON-ready report; the
``render_*`` functions turn a report into the aligned-text form the
CLI prints by default.

The summary is built from the **deterministic** section of the log —
run/round/cell lifecycle and the counters dump — so summarizing the
same log twice, or logs recorded by identical runs in fresh
processes, yields identical output.  The profile view reads the
nondeterministic section (span aggregates, worker timings) and is as
reproducible as wall time is.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.registry import InstrumentRegistry


def summarize_records(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The deterministic summary of one event log."""
    runs = 0
    decisions = 0
    corruptions = 0
    sends = 0
    cells_total = 0
    cells_held = 0
    cells_falsified = 0
    per_round: Dict[int, Dict[str, int]] = {}
    counters: Dict[str, int] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "run_start":
            runs += 1
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
            cells_total += 1
            if record["holds"] is True:
                cells_held += 1
            elif record["holds"] is False:
                cells_falsified += 1
        elif kind == "counters":
            counters = dict(record["counters"])
    registry = InstrumentRegistry()
    registry.absorb(counters)
    hit_rates = {
        cache: {"rate": round(rate, 4), "hits": hits, "misses": misses}
        for cache, (rate, hits, misses) in registry.hit_rates().items()
    }
    return {
        "records": len(records),
        "runs": runs,
        "decisions": decisions,
        "sends": sends,
        "corruptions": corruptions,
        "cells": {
            "total": cells_total,
            "held": cells_held,
            "falsified": cells_falsified,
        },
        "per_round": {
            str(round_number): per_round[round_number]
            for round_number in sorted(per_round)
        },
        "counters": counters,
        "hit_rates": hit_rates,
    }


def profile_records(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The span/worker rollup of one event log.

    Multiple ``profile`` records (one per observer close) are summed
    span-wise; ``workers`` records are listed as recorded.
    """
    spans: Dict[str, Dict[str, Any]] = {}
    gauges: Dict[str, float] = {}
    workers: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "profile":
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
            workers.append(
                {
                    "workers": record["workers"],
                    "wall_s": record["wall_s"],
                    "idle_s": record["idle_s"],
                }
            )
    return {
        "spans": {path: spans[path] for path in sorted(spans)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "workers": workers,
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


def render_summary(summary: Dict[str, Any]) -> str:
    """Aligned-text form of :func:`summarize_records`."""
    lines = [
        f"records: {summary['records']}  runs: {summary['runs']}  "
        f"decisions: {summary['decisions']}  sends: {summary['sends']}  "
        f"corruptions: {summary['corruptions']}",
    ]
    cells = summary["cells"]
    if cells["total"]:
        lines.append(
            f"cells: {cells['total']}  held: {cells['held']}  "
            f"falsified: {cells['falsified']}"
        )
    if summary["per_round"]:
        lines.append("")
        lines.append("per-round traffic (summed across runs):")
        rows = [
            [
                round_number,
                str(row["messages"]),
                str(row["non_null"]),
                str(row["bits"]),
            ]
            for round_number, row in summary["per_round"].items()
        ]
        lines.extend(
            _table(["round", "messages", "non-null", "bits"], rows)
        )
    if summary["hit_rates"]:
        lines.append("")
        lines.append("cache hit rates:")
        rows = [
            [
                cache,
                f"{stats['rate']:.2%}",
                str(stats["hits"]),
                str(stats["misses"]),
            ]
            for cache, stats in summary["hit_rates"].items()
        ]
        lines.extend(_table(["cache", "rate", "hits", "misses"], rows))
    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, value in summary["counters"].items():
            lines.append(f"  {name} = {value}")
    return "\n".join(lines)


def render_profile(profile: Dict[str, Any]) -> str:
    """Aligned-text form of :func:`profile_records`."""
    lines: List[str] = []
    if profile["spans"]:
        lines.append("span profile (nondeterministic wall time):")
        ordered = sorted(
            profile["spans"].items(),
            key=lambda item: item[1]["total_s"],
            reverse=True,
        )
        rows = [
            [
                path,
                str(stats["count"]),
                f"{stats['total_s']:.6f}",
                f"{stats['max_s']:.6f}",
            ]
            for path, stats in ordered
        ]
        lines.extend(_table(["span", "count", "total_s", "max_s"], rows))
    else:
        lines.append("no span profile recorded")
    if profile["gauges"]:
        lines.append("")
        lines.append("gauges:")
        for name, value in profile["gauges"].items():
            lines.append(f"  {name} = {value}")
    for entry in profile["workers"]:
        lines.append("")
        lines.append(
            f"pool: wall {entry['wall_s']:.3f}s, "
            f"idle {entry['idle_s']:.3f}s across workers"
        )
        for worker in entry["workers"]:
            lines.append(
                f"  worker cells={worker['cells']} "
                f"busy_s={worker['busy_s']}"
            )
    return "\n".join(lines)


__all__ = [
    "profile_records",
    "render_profile",
    "render_summary",
    "summarize_records",
]
