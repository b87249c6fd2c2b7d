#!/usr/bin/env python
"""Alternating parent/change pairs of benchmark workloads.

The measurement loop a perf PR claims a gain by (choosing-metrics §8):
for each seed run ``benchmarks/perf/run.py --workload W --seed S
--seconds 12 --trace 0`` in two checkouts, alternating which side goes
first, then print the claimed metric's per-seed values, each side's
median and quartiles, wins/pairs and the verdict — a gain needs the
change to win at least nine tenths of the pairs *and* the medians to
differ, in the metric's better direction, by more than the parent's own
quartile distance.  ``--claim`` names the metric (default
``executions_per_s``): any end-to-end metric of ``BENCHMARK.json`` but
``bits_per_execution``, its direction taken from the entry's ``better``
— when lower is better, a pair is won when the change is below the
parent and the gap is parent minus change.  Then one line per
end-to-end metric the same runs carry (``executions_per_s``,
``cpu_ms_per_execution``, ``peak_rss_mb``, ``setup_s``), which is what a
PR that claims *no* gain quotes and what the pipeline rejects a PR by:
the median ratio against the metric's ``bound`` and direction from
``BENCHMARK.json``, whether the two sides' quartile ranges overlap,
and ``regression`` (the median is worse by more than the bound),
``unresolved`` (it is not, but a side's quartile distance is wider
than the bound, so the runs cannot tell — unless every change run beat
every parent run) or ``within bound``;
overlapping runs are never "unchanged".  Exits 1 when
``bits_per_execution`` differs at any seed, any execution failed or a
metric other than the claimed one reads ``regression``, 2 when the claim
is not met.  ``--workload`` takes a comma-separated list, in which
``all`` stands for every workload of the benchmark not yet named: one
block per workload, the first being the one the claim is about — the
others are only read against their bounds, the claimed metric included,
and any of them can turn the exit status into 1.  The run length is the
benchmark's, not the caller's: there is no ``--seconds``.  The
checkouts are the caller's business (no git handling here).

Run:  python tools/bench_pairs.py --parent DIR --change DIR \\
          --workload pool-sweep,all --seeds 1901-1910
      python tools/bench_pairs.py --parent DIR --change DIR \\
          --claim setup_s --workload eig-sweep,all --seeds 1901-1910
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List

# The benchmark sets the run length: it is not the caller's to choose.
SECONDS = 12
# The claimed metric unless ``--claim`` names another.
METRIC = "executions_per_s"
# Compared for equality at every seed, never read against a bound.
EXACT = "bits_per_execution"


def run(checkout: pathlib.Path, workload: str, seed: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def benchmark() -> Dict[str, Any]:
    return json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )


def declared() -> List[Dict[str, Any]]:
    """The end-to-end metrics read against a bound, as the benchmark
    declares them: ``name``, ``better`` and the share ``bound`` by which
    the metric may worsen."""
    return [
        metric for metric in benchmark()["end_to_end"]
        if metric["name"] != EXACT
    ]


def read_against_bound(
    metric: Dict[str, Any], values: Dict[str, List[float]]
) -> str:
    """Print ``metric``'s line of the report; returns its verdict."""
    limit = metric["bound"]
    low, median, high = {}, {}, {}
    for side, samples in values.items():
        low[side], median[side], high[side] = statistics.quantiles(samples, n=4)
    ratio = median["change"] / median["parent"]
    if metric["better"] == "higher":
        edge, worse = f"floor of {1 - limit:g}", ratio < 1 - limit
        beat_all = min(values["change"]) > max(values["parent"])
    else:
        edge, worse = f"ceiling of {1 + limit:g}", ratio > 1 + limit
        beat_all = max(values["change"]) < min(values["parent"])
    overlap = low["change"] <= high["parent"] and low["parent"] <= high["change"]
    if worse:
        verdict = "regression"
    elif not beat_all and any(
        high[side] - low[side] > limit * median[side] for side in values
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print(f"{metric['name']} bound {limit:g}: parent {median['parent']:.4g} "
          f"[{low['parent']:.4g}..{high['parent']:.4g}]  change "
          f"{median['change']:.4g} [{low['change']:.4g}.."
          f"{high['change']:.4g}], median ratio {ratio:.3f} against a "
          f"{edge}, quartile ranges {'overlap' if overlap else 'apart'} "
          f"-> {verdict}")
    return verdict


def claimable(name: str) -> Dict[str, Any]:
    """The declared end-to-end metric ``--claim`` names."""
    for metric in declared():
        if metric["name"] == name:
            return metric
    raise argparse.ArgumentTypeError(
        f"not a claimable end-to-end metric of BENCHMARK.json: {name!r}"
    )


def seeds(spec: str) -> List[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def workloads(spec: str) -> List[str]:
    """``a,b`` names workloads in order; ``all`` stands for every
    workload of the benchmark not named before it."""
    names: List[str] = []
    for name in spec.split(","):
        names.extend(
            [workload["name"] for workload in benchmark()["workloads"]]
            if name == "all" else [name]
        )
    return list(dict.fromkeys(names))


def pairs(
    sides: Dict[str, pathlib.Path],
    workload: str,
    seed_list: List[int],
    claim: Dict[str, Any],
    claimed: bool,
) -> int:
    """Run and report one workload's pairs; returns its exit status.

    Only the ``claimed`` workload is read for a gain (0 or 2) on the
    ``claim`` metric; on any other, that metric is one more that must
    stay within its bound, and the status is 0 unless something broke
    or regressed.
    """
    target = claim["name"]
    # +1 when higher is better: ``sign * (change - parent)`` is the gain.
    sign = 1 if claim["better"] == "higher" else -1
    metrics = declared()
    values: Dict[str, Dict[str, List[float]]] = {
        metric["name"]: {side: [] for side in sides} for metric in metrics
    }
    broken = wins = losses = 0
    for index, seed in enumerate(seed_list):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        lines = {side: run(sides[side], workload, seed) for side in order}
        pair = {side: lines[side]["metrics"] for side in sides}
        for name, by_side in values.items():
            for side in sides:
                by_side[side].append(pair[side][name]["value"])
        bits = {side: pair[side][EXACT]["value"] for side in sides}
        failed = sum(lines[side]["failed"] for side in sides)
        broken += (bits["parent"] != bits["change"]) + bool(failed)
        parent, change = (values[target][side][-1] for side in sides)
        wins += sign * (change - parent) > 0
        losses += sign * (change - parent) < 0
        print(f"seed {seed} ({order[0]} first): parent {parent:.4g}  "
              f"change {change:.4g}  ratio {change / parent:.3f}  bits "
              f"{bits['parent']:.0f}/{bits['change']:.0f}  failed {failed}")
    gained = True
    if claimed:
        medians, spread = {}, {}
        for side, samples in values[target].items():
            low, medians[side], high = statistics.quantiles(samples, n=4)
            spread[side] = high - low
            print(f"{side}: median {medians[side]:.4g}  "
                  f"quartiles {low:.4g}..{high:.4g}")
        gap = sign * (medians["change"] - medians["parent"])
        gained = wins >= 0.9 * len(seed_list) and gap > spread["parent"]
        print(f"{target} on {workload}: change wins {wins}/"
              f"{len(seed_list)} (loses {losses}), median ratio "
              f"{medians['change'] / medians['parent']:.3f}, "
              f"medians apart by {gap:.4g} vs parent quartile distance "
              f"{spread['parent']:.4g} -> {'GAIN' if gained else 'NO GAIN'}")
    regressed = []
    for metric in metrics:
        verdict = read_against_bound(metric, values[metric["name"]])
        # A regression on the claimed metric is a claim not met: exit 2.
        if verdict == "regression" and not (
            claimed and metric["name"] == target
        ):
            regressed.append(metric["name"])
    if broken:
        print(f"{broken} seed(s) with differing bits or failed executions")
    if regressed:
        print(f"beyond the bound on {workload}: {', '.join(regressed)}")
    if broken or regressed:
        return 1
    return 0 if gained else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workload", type=workloads, required=True,
                        metavar="W[,W...|,all]")
    parser.add_argument("--seeds", type=seeds, required=True, metavar="A-B")
    parser.add_argument("--claim", type=claimable, default=METRIC,
                        metavar="METRIC")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    statuses = []
    for index, workload in enumerate(args.workload):
        if len(args.workload) > 1:
            print(f"== {workload}")
        statuses.append(pairs(sides, workload, args.seeds, args.claim,
                              claimed=index == 0))
    return 1 if 1 in statuses else statuses[0]


if __name__ == "__main__":
    sys.exit(main())
