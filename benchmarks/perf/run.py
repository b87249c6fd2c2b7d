"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

Two ways in, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as ``BENCHMARK.json`` describes it.  The
    last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
    with every end-to-end metric (``--trace 0``) or every per-layer
    metric (``--trace 1``).  Traced and untraced are separate runs.

``run.py [--seed N] [--repeat R] [--traced] [--smoke] [--output F]``
    Every workload in turn, ``R`` times over; prints each metric by
    name with its unit, compares the sets against the bounds in
    ``BENCHMARK.json`` and exits non-zero on any failed execution or
    any gap beyond its bound.

This process never imports ``repro``: each workload runs in fresh
child processes (``child.py``), several of them per run so that
``setup_s`` is a median rather than one sample.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

import numpy

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from reference import scale, steady  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Fresh processes per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 4
CHILD_TIMEOUT_S = 170


def spread(samples: List[float]) -> Dict[str, Any]:
    quartiles = (
        statistics.quantiles(samples, n=4) if len(samples) > 1
        else [samples[0]] * 3
    )
    return {
        "steady": steady(samples),
        "median": statistics.median(samples),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "min": min(samples),
        "passes": len(samples),
        "samples": samples,
    }


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool,
    scratch: pathlib.Path,
) -> Dict[str, Any]:
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scratch", str(scratch),
    ]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Dict[str, Any]:
    """One run of one workload: its metrics, checks and raw samples."""
    scratch = ROOT / ".perf_scratch" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            children = [run_child(workload, seed, seconds, 1, smoke, scratch)]
        else:
            children = [
                run_child(workload, seed, 0, 0, smoke, scratch)
                for _ in range(0 if smoke else SETUP_RUNS - 1)
            ]
            children.append(
                run_child(workload, seed, seconds, 0, smoke, scratch)
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still in there
    main = children[-1]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    problems = [p for child in children for p in child["problems"]]
    for child in children[:-1]:
        if child["counters"] != main["counters"]:
            failed += child["attempted"]
            problems.append("deterministic counters differ between processes")
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "counters": main["counters"],
    }
    # Durations leave in reference seconds (reference.py).
    passes_scale = scale(main["reference_s"])
    if trace:
        durations = {
            entry["name"] for entry in SPEC["per_layer"]
            if entry["unit"] in ("s", "us")
        }
        result["metrics"] = {
            name: value * passes_scale if name in durations else value
            for name, value in main["per_layer"].items()
        }
        result["layer_shares"] = main["layer_shares"]
        return result
    per_pass = main["executions_per_pass"]
    wall = spread(main["pass_wall_s"])
    cpu = spread(main["pass_cpu_s"])
    setups = [
        child["setup_s"] * scale(child["setup_reference_s"])
        for child in children
    ]
    result["metrics"] = {
        "executions_per_s": per_pass / (wall["steady"] * passes_scale),
        "cpu_ms_per_execution": (
            1000.0 * cpu["steady"] * passes_scale / per_pass
        ),
        "bits_per_execution": main["bits_per_execution"],
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    # As measured, before scaling to reference seconds.
    result["timings"] = {
        "executions_per_pass": per_pass,
        "pass_wall_s": wall,
        "pass_cpu_s": cpu,
        "setup_s": [child["setup_s"] for child in children],
        "reference_s": spread(main["reference_s"]),
        "reference_scale": passes_scale,
    }
    return result


def contract_line(result: Dict[str, Any], trace: int) -> str:
    """The result line the driver reads, metrics as BENCHMARK.json lists them."""
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {
                "value": result["metrics"][entry["name"]],
                "unit": entry["unit"],
            }
            for entry in listed
        },
    })


# -- the whole set -----------------------------------------------------------


def _environment() -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def _print_run(result: Dict[str, Any], trace: int) -> None:
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    print(f"{result['workload']}  (seed {result['seed']}, "
          f"{result['failed']}/{result['attempted']} failed)")
    for entry in listed:
        print(f"  {entry['name']:<44} "
              f"{result['metrics'][entry['name']]:>16.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")


def _gaps(sets: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Relative gap of every end-to-end metric between the first two sets."""
    rows = []
    for workload in WORKLOADS:
        first, second = (s[workload]["metrics"] for s in sets[:2])
        for entry in SPEC["end_to_end"]:
            name = entry["name"]
            gap = abs(second[name] - first[name]) / first[name]
            rows.append({
                "workload": workload, "metric": name, "gap": gap,
                "bound": entry["bound"], "within": gap <= entry["bound"],
            })
    return rows


def suite(args: argparse.Namespace) -> int:
    trace = int(args.traced)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else SPEC["run_seconds"]
    sets = []
    for index in range(args.repeat):
        print(f"== set {index + 1} of {args.repeat} ==")
        results = {}
        for workload in WORKLOADS:
            results[workload] = measure(
                workload, args.seed, seconds, trace, args.smoke
            )
            _print_run(results[workload], trace)
        sets.append(results)
    report: Dict[str, Any] = {
        "environment": _environment(),
        "seed": args.seed,
        "run_seconds": seconds,
        "traced": bool(trace),
        "smoke": args.smoke,
        "sets": sets,
    }
    failed = sum(r["failed"] for s in sets for r in s.values())
    status = 1 if failed else 0
    if args.repeat > 1 and not trace:
        report["gaps"] = _gaps(sets)
        for row in report["gaps"]:
            if not row["within"]:
                print(f"GAP {row['workload']} {row['metric']}: "
                      f"{row['gap']:.3f} > {row['bound']}")
                status = 1
    if args.output:
        pathlib.Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="whole set, per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids: proves the plumbing, measures nothing")
    parser.add_argument("--output", help="write the whole-set report here")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return suite(args)
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    result = measure(args.workload, args.seed, seconds, args.trace, args.smoke)
    for problem in result["problems"]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps(result.get("timings", {})))
    print(contract_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
