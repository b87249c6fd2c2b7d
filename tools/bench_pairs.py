#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload.

The measurement loop a perf PR claims a gain by (choosing-metrics §8):
for each seed run ``benchmarks/perf/run.py --workload W --seed S
--seconds 12 --trace 0`` in two checkouts, alternating which side goes
first, then print per-seed values, each side's median and quartiles,
wins/pairs and the verdict — a gain needs the change to win at least
nine tenths of the pairs *and* the medians to differ by more than the
parent's own quartile distance.  One more line is what a PR that claims
*no* gain quotes: the median ratio against the metric's ``bound`` from
``BENCHMARK.json``, whether the two sides' quartile ranges overlap, and
``regression`` (the median is worse by more than the bound),
``unresolved`` (it is not, but a side's quartile distance is wider than
the bound, so the runs cannot tell — unless every change run beat every
parent run) or ``within bound``; overlapping runs are never "unchanged".
Exits 1 when ``bits_per_execution`` differs at any seed or any
execution failed, 2 when the claim is not met.  The checkouts are the
caller's business (no git handling here).

Run:  python tools/bench_pairs.py --parent DIR --change DIR \\
          --workload compact-sweep --seeds 1901-1910
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List

# The benchmark sets the run length, and with ``--trace 0`` this is its one
# higher-is-better end-to-end metric: neither is the caller's to choose.
SECONDS = 12
METRIC = "executions_per_s"


def run(checkout: pathlib.Path, workload: str, seed: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def bound() -> float:
    """The share by which ``METRIC`` may worsen, as the benchmark fixes it."""
    declared = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    return next(
        metric["bound"] for metric in declared["end_to_end"]
        if metric["name"] == METRIC
    )


def seeds(spec: str) -> List[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, metavar="A-B")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    values: Dict[str, List[float]] = {"parent": [], "change": []}
    broken = wins = losses = 0
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        lines = {side: run(sides[side], args.workload, seed) for side in order}
        pair = {side: lines[side]["metrics"] for side in sides}
        bits = {
            side: pair[side]["bits_per_execution"]["value"] for side in sides
        }
        failed = sum(lines[side]["failed"] for side in sides)
        broken += (bits["parent"] != bits["change"]) + bool(failed)
        parent, change = (pair[side][METRIC]["value"] for side in sides)
        values["parent"].append(parent)
        values["change"].append(change)
        wins += change > parent
        losses += change < parent
        print(f"seed {seed} ({order[0]} first): parent {parent:.4g}  "
              f"change {change:.4g}  ratio {change / parent:.3f}  bits "
              f"{bits['parent']:.0f}/{bits['change']:.0f}  failed {failed}")
    medians, spread, low, high = {}, {}, {}, {}
    for side, samples in values.items():
        low[side], medians[side], high[side] = statistics.quantiles(samples, n=4)
        spread[side] = high[side] - low[side]
        print(f"{side}: median {medians[side]:.4g}  "
              f"quartiles {low[side]:.4g}..{high[side]:.4g}")
    gap = medians["change"] - medians["parent"]
    gained = wins >= 0.9 * len(args.seeds) and gap > spread["parent"]
    ratio = medians["change"] / medians["parent"]
    print(f"{METRIC} on {args.workload}: change wins {wins}/"
          f"{len(args.seeds)} (loses {losses}), median ratio {ratio:.3f}, "
          f"medians apart by {gap:.4g} vs parent quartile distance "
          f"{spread['parent']:.4g} -> {'GAIN' if gained else 'NO GAIN'}")
    limit = bound()
    overlap = low["change"] <= high["parent"] and low["parent"] <= high["change"]
    if ratio < 1 - limit:
        verdict = "regression"
    elif min(values["change"]) <= max(values["parent"]) and any(
        spread[side] > limit * medians[side] for side in sides
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print(f"{METRIC} bound {limit:g}: median ratio {ratio:.3f} against a "
          f"floor of {1 - limit:g}, quartile ranges "
          f"{'overlap' if overlap else 'apart'} -> {verdict}")
    if broken:
        print(f"{broken} seed(s) with differing bits or failed executions")
        return 1
    return 0 if gained else 2


if __name__ == "__main__":
    sys.exit(main())
