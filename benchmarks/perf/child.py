"""One fresh process per workload: set up, warm up, then measure.

Started by ``run.py``; never imported.  The clock for ``setup_s``
starts on the first line, before ``import repro``, and stops when the
untimed warm-up pass ends — imports, grid construction and first-call
tables are all in it.  A fresh process per workload keeps memoised
tables, imports and ``ru_maxrss`` from leaking between workloads.

Untraced (``--trace 0``): timed passes under the workload's own
observer (the null observer for five of six) until ``--seconds`` have
elapsed.  Traced (``--trace 1``): untraced and traced passes
alternate, so ``tracing_overhead`` compares like with like, then the
side probes run.  Either way the last stdout line is one JSON object.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, NamedTuple  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import workloads  # noqa: E402

MIN_PASSES = 7
MIN_TRACED_PAIRS = 2
SMOKE_MIN_PASSES = 2
#: Reference-kernel readings taken right after set-up; one more
#: follows every timed pass.
SETUP_READINGS = 5


def _cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb(workload: workloads.Workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    kilobytes = {"self": own, "child": child, "self+child": own + child}
    return kilobytes[workload.rss] / 1024.0


class Checker:
    """Counts attempts and failures; pins the deterministic counters."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[str, Any] = {}
        self.problems: List[str] = []

    def check(self, label: str, outcome: workloads.PassOutcome) -> None:
        self.attempted += outcome.executions
        failed = outcome.failed
        if failed:
            self.problems.append(f"{label}: {failed} executions failed")
        for key, value in outcome.counters.items():
            expected = self.reference.setdefault(key, value)
            if value != expected:
                # The whole pass is suspect: nothing deterministic may
                # differ between two passes over the same grid.
                failed = outcome.executions
                self.problems.append(
                    f"{label}: counter {key} = {value!r}, was {expected!r}"
                )
        self.failed += failed


def _timed_pass(workload: workloads.Workload, **kwargs: Any):
    cpu, started = _cpu_s(), time.perf_counter()
    outcome = workload.run_pass(**kwargs)
    return outcome, time.perf_counter() - started, _cpu_s() - cpu


def untraced(
    workload, checker: Checker, seconds: float, smoke: bool,
    readings: List[float],
) -> Dict[str, Any]:
    import reference

    walls: List[float] = []
    cpus: List[float] = []
    deadline = time.perf_counter() + seconds
    least = SMOKE_MIN_PASSES if smoke else MIN_PASSES
    while seconds > 0 and (
        time.perf_counter() < deadline or len(walls) < least
    ):
        outcome, wall, cpu = _timed_pass(
            workload, observer=workload.observer(False)
        )
        checker.check(f"pass {len(walls) + 1}", outcome)
        walls.append(wall)
        cpus.append(cpu)
        readings.append(reference.reading())
    return {"pass_wall_s": walls, "pass_cpu_s": cpus}


class TracedPass(NamedTuple):
    wall_s: float
    profile: Any
    counters: Dict[str, int]
    gauges: Dict[str, float]
    outcome: workloads.PassOutcome
    rounds: int


def traced(
    workload, checker: Checker, seconds: float, scratch: pathlib.Path,
    smoke: bool, readings: List[float],
) -> Dict[str, Any]:
    import layers
    import probes
    import reference

    wrap = layers.SpanWrapper()
    passes = probes.Passes(workload, readings)
    repeats = 1 if smoke else probes.what_if_repeats(seconds)

    def traced_pass(label: str, **switches: Any) -> TracedPass:
        rounds = wrap.rounds
        outcome, wall, _cpu = _timed_pass(
            workload, observer=workload.observer(True), wrap=wrap, **switches
        )
        checker.check(label, outcome)
        readings.append(reference.reading())
        return TracedPass(
            wall, *layers.observer_state(outcome.observer), outcome,
            wrap.rounds - rounds,
        )

    # Untraced and traced passes alternate, so each overhead sample
    # compares neighbours in time.
    plain: List[float] = []
    spanned: List[TracedPass] = []
    deadline = time.perf_counter() + seconds / 4
    while len(plain) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        outcome, wall, _cpu = _timed_pass(
            workload, observer=workload.observer(False)
        )
        checker.check("untraced pass", outcome)
        plain.append(wall)
        readings.append(reference.reading())
        spanned.append(traced_pass("traced pass"))
    # Spans, counters and gauges are read off the fastest traced pass.
    best = min(spanned, key=lambda traced: traced.wall_s)
    metrics: Dict[str, float] = {
        "tracing_overhead": statistics.median(
            traced.wall_s / wall for wall, traced in zip(plain, spanned)
        ) - 1.0,
        "obs.events.records": float(
            best.outcome.counters.get("event_records", 0)
        ),
        "obs.events.bytes": float(best.outcome.event_bytes),
        "analysis.pool.speedup_over_serial": 0.0,
    }
    metrics.update(layers.pool_metrics(
        best.gauges, best.counters.get("pool.chunks", 0), best.wall_s
    ))
    if best.gauges.get("pool.workers"):
        # Pool workers run under counters-only observers, so the cells'
        # spans come from serial passes over the same grid.
        best = min(
            (traced_pass("serial traced pass", workers=1)
             for _ in range(repeats)),
            key=lambda traced: traced.wall_s,
        )
        # Serial wall over pooled wall.
        metrics.update(passes.ratios(
            repeats, {},
            **{"analysis.pool.speedup_over_serial": {"workers": 1}},
        ))
    spans, shares = layers.span_metrics(
        best.profile, best.counters, best.gauges, best.rounds
    )
    metrics.update(spans)

    metrics.update(probes.async_over_lockstep(passes, repeats))
    metrics.update(probes.observer_overhead(passes, scratch, repeats))
    metrics.update(probes.persistent_cache(passes, scratch))
    metrics.update(probes.fuzz_protocols(passes, repeats))
    metrics.update(probes.array_primitives(
        1 if smoke else probes.ARRAY_REPEATS, readings
    ))
    cli = (
        workload if isinstance(workload, workloads.CliWorkload)
        else workloads.CliWorkload("cli-cold", [0])
    )
    phases = probes.cli_phases(
        cli.command(cli.seeds[0]), 1 if smoke else probes.CLI_REPEATS, readings
    )
    metrics.update(phases)
    if cli is workload:
        # Spans cannot see inside the child processes; the start-up
        # phases stand in for them.
        invocation = min(
            plain + [traced.wall_s for traced in spanned]
        ) / workload.executions
        metrics["unattributed_share"] = max(
            0.0, 1.0 - sum(
                phases[f"cli.{phase}_s"]
                for phase in ("interpreter", "import", "command")
            ) / invocation
        )
    return {
        "per_layer": metrics,
        "layer_shares": shares,
        "pass_wall_s": plain,
        "traced_pass_wall_s": [traced.wall_s for traced in spanned],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", type=pathlib.Path, required=True)
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.smoke, args.scratch)
    checker = Checker()
    warmup = workload.run_pass(observer=workload.warmup_observer())
    setup_s = time.perf_counter() - STARTED
    checker.check("warm-up", warmup)
    problems = workload.check_warmup(warmup)
    if problems:
        checker.failed += problems
        checker.problems.append(f"warm-up: {problems} closedness problems")

    # Imported late: the ruler's own import is no part of set-up.
    import reference

    setup_readings = [reference.reading() for _ in range(SETUP_READINGS)]
    readings = list(setup_readings)
    if args.trace:
        result = traced(
            workload, checker, args.seconds, args.scratch, args.smoke,
            readings,
        )
    else:
        result = untraced(
            workload, checker, args.seconds, args.smoke, readings
        )
    result.update(
        setup_reference_s=setup_readings,
        reference_s=readings,
        workload=workload.name,
        seed=args.seed,
        setup_s=setup_s,
        executions_per_pass=workload.executions,
        bits_per_execution=warmup.bits / (
            warmup.counters.get("runs") or warmup.executions
        ),
        peak_rss_mb=_peak_rss_mb(workload),
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        counters=checker.reference,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
