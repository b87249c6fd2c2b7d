"""Side probes of the traced run: what spans cannot show.

Two kinds.  *What-if* probes re-run the workload's own grid under one
switch (``scheduler="async"``, each observer mode, a persistent cache
directory, ``workers=1``) and report the wall-time ratio; a probe that
does not apply to a workload reports 0.  *Fixed* probes
time array primitives on seeded trees and the CLI's start-up phases in
fresh interpreters; they read the same whichever workload is traced.

A ratio is the median over a few *adjacent* pairs of passes: the
host's speed drifts over seconds (reference.py), and neighbours in
time share its state.  Fixed probes keep the fastest repeat.
"""

from __future__ import annotations

import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.arrays import persist
from repro.fuzz.protocols import CATALOG_PROTOCOLS
from repro.obs.core import Observer
from repro.obs.events import EventLog

import reference
import workloads

#: Repeats of an array probe (milliseconds each) and of a CLI phase
#: (a process each).  ``--smoke`` runs everything once.
ARRAY_REPEATS = 15
CLI_REPEATS = 3


def what_if_repeats(seconds: float) -> int:
    """Adjacent pairs per what-if ratio: a longer run buys more."""
    return max(2, round(seconds / 4))


class Passes:
    """Times passes of one workload; takes a reference reading after each."""

    def __init__(self, workload: workloads.Workload, readings: List[float]):
        self.workload = workload
        self.readings = readings

    def wall(self, **kwargs: Any) -> float:
        started = time.perf_counter()
        self.workload.run_pass(**kwargs)
        elapsed = time.perf_counter() - started
        self.readings.append(reference.reading())
        return elapsed

    def ratios(
        self, repeats: int, base: Dict[str, Any], **others: Dict[str, Any]
    ) -> Dict[str, float]:
        """Median over ``repeats`` rounds of ``wall(other) / wall(base)``.

        A value of ``base``/``others`` may be a zero-argument callable:
        observers are single-use, so each pass builds its own.
        """
        def fresh(kwargs: Dict[str, Any]) -> Dict[str, Any]:
            return {
                key: value() if callable(value) else value
                for key, value in kwargs.items()
            }

        samples: Dict[str, List[float]] = {name: [] for name in others}
        for _ in range(repeats):
            base_wall = self.wall(**fresh(base))
            for name, kwargs in others.items():
                samples[name].append(self.wall(**fresh(kwargs)) / base_wall)
        return {name: statistics.median(v) for name, v in samples.items()}


def async_over_lockstep(passes: Passes, repeats: int) -> Dict[str, float]:
    def observer() -> Optional[Observer]:
        return passes.workload.observer(False)

    return passes.ratios(
        repeats,
        {"observer": observer, "scheduler": "lockstep"},
        **{"runtime.scheduler.async_over_lockstep": {
            "observer": observer, "scheduler": "async",
        }},
    )


def observer_overhead(
    passes: Passes, scratch: pathlib.Path, repeats: int
) -> Dict[str, float]:
    """Grid wall under each observer mode over the null observer."""
    log = scratch / "probe-events.jsonl"
    modes: Dict[str, Callable[[], Observer]] = {
        "obs.overhead.counters": lambda: Observer(spans=False),
        "obs.overhead.events": lambda: Observer(events=EventLog(log)),
        "obs.overhead.trace": lambda: Observer(
            events=EventLog(log), trace=True
        ),
    }
    if isinstance(passes.workload, workloads.CliWorkload):
        # The observer lives in the child processes; `run-ba --events`
        # is a different command line, not a mode of this one.
        return {name: 0.0 for name in modes}
    return passes.ratios(
        repeats, {"observer": None},
        **{name: {"observer": make} for name, make in modes.items()},
    )


def persistent_cache(passes: Passes, scratch: pathlib.Path) -> Dict[str, float]:
    """Cold then warm pass over an empty cache directory.

    ``forget_caches`` between the two drops the in-process handle, so
    the warm pass reads the cache from disk as a fresh process would.
    """
    directory = scratch / "probe-cache"
    shutil.rmtree(directory, ignore_errors=True)
    cold = passes.wall(cache=directory)
    persist.forget_caches()
    # Counts persist.hit/miss in this process; `cli-cold` looks the
    # cache up in its children, so its ratio reads 0.
    observer = Observer(spans=False)
    warm = passes.wall(observer=observer, cache=directory)
    persist.forget_caches()
    shutil.rmtree(directory, ignore_errors=True)
    hits = observer.registry.counter("persist.hit")
    misses = observer.registry.counter("persist.miss")
    return {
        "persist.cold_s": cold,
        "persist.warm_s": warm,
        "persist.warm_over_cold": warm / cold,
        "persist.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def fuzz_protocols(passes: Passes, repeats: int) -> Dict[str, float]:
    """Wall of one single-protocol campaign per registered target."""
    walls = {f"fuzz.protocol.{name}.wall_s": 0.0 for name in CATALOG_PROTOCOLS}
    if isinstance(passes.workload, workloads.FuzzWorkload):
        for name in CATALOG_PROTOCOLS:
            walls[f"fuzz.protocol.{name}.wall_s"] = min(
                passes.wall(protocols=(name,)) for _ in range(repeats)
            )
    return walls


# -- fixed probes ----------------------------------------------------------------


def _best_us(
    prepare: Callable[[], Any], run: Callable[[Any], None], repeats: int
) -> float:
    """Fastest microseconds per tree; ``prepare`` is not timed."""
    best = float("inf")
    for _ in range(repeats):
        state = prepare()
        started = time.perf_counter()
        run(state)
        best = min(best, time.perf_counter() - started)
    return best / TREES * 1e6


TREES = 40


def array_primitives(repeats: int, readings: List[float]) -> Dict[str, float]:
    """Kernel primitives on seeded depth-3 trees at n=7, t=2.

    Every repeat starts from a fresh store, so memo tables are cold as
    they are at the start of a sweep.  ``plain_walk`` is the path
    ``fuzz-campaign`` leans on: shape validation of plain (un-interned)
    tuples, as firing-squad does on every received message.
    """
    from repro.arrays.encoding import MessageSizer
    from repro.arrays.store import ArrayStore
    from repro.arrays.value_array import array_depth, validate_array
    from repro.compact.expansion import ExpansionState
    from repro.fullinfo.decision import eig_byzantine_decision
    from repro.types import SystemConfig

    n, t = 7, 2
    config = SystemConfig(n=n, t=t)
    rng = random.Random(1986)

    def tree(depth: int) -> Any:
        if depth == 0:
            return rng.randrange(2)
        return tuple(tree(depth - 1) for _ in range(n))

    plain = [tree(t + 1) for _ in range(TREES)]

    def interned() -> Any:
        store = ArrayStore(n)
        return store, [store.intern(array) for array in plain]

    def intern(store: Any) -> None:
        for array in plain:
            store.intern(array)

    def measure(state: Any) -> None:
        sizer = MessageSizer(2, n)
        for array in state[1]:
            sizer.measure(array)

    def decide(state: Any) -> None:
        for array in state[1]:
            eig_byzantine_decision(array, n, t, 1, default=0, alphabet=(0, 1))

    def expand(state: Any) -> None:
        expansion = ExpansionState(config, (0, 1), store=state[0])
        for array in state[1]:
            expansion.expand(1, array)

    def plain_walk(_state: Any) -> None:
        for array in plain:
            validate_array(array, n, depth=t + 1)
            array_depth(array, n)

    readings.append(reference.reading())
    return {
        "arrays.probe.intern_us": _best_us(lambda: ArrayStore(n), intern, repeats),
        "arrays.probe.measure_us": _best_us(interned, measure, repeats),
        "arrays.probe.eig_decision_us": _best_us(interned, decide, repeats),
        "arrays.probe.expand_us": _best_us(interned, expand, repeats),
        "arrays.probe.plain_walk_us": _best_us(lambda: None, plain_walk, repeats),
    }


_PHASES = """
import sys, time
started = time.perf_counter()
import repro.cli
imported = time.perf_counter()
modules = sum(1 for name in sys.modules if name.split(".")[0] == "repro")
status = repro.cli.main(sys.argv[1:])
print("PHASES", imported - started, time.perf_counter() - imported, modules)
sys.exit(status or 0)
"""


def cli_phases(
    command: List[str], repeats: int, readings: List[float]
) -> Dict[str, float]:
    """Start-up phases of ``command`` (a ``python -m repro`` argv).

    ``cli.import_s`` is what every workload's ``setup_s`` pays too.
    """
    env = workloads.child_env()

    def spawn(argv: List[str]) -> "subprocess.CompletedProcess[str]":
        return subprocess.run(
            [sys.executable] + argv, env=env, cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )

    def wall(argv: List[str]) -> float:
        started = time.perf_counter()
        spawn(argv)
        return time.perf_counter() - started

    arguments = command[command.index("repro") + 1:]
    interpreter = help_wall = imported = ran = float("inf")
    modules = 0
    for _ in range(repeats):
        interpreter = min(interpreter, wall(["-c", "pass"]))
        help_wall = min(help_wall, wall(["-m", "repro", "--help"]))
        fields = spawn(
            ["-c", _PHASES] + arguments
        ).stdout.rsplit("PHASES", 1)[1].split()
        imported = min(imported, float(fields[0]))
        ran = min(ran, float(fields[1]))
        modules = int(fields[2])
        readings.append(reference.reading())
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": imported,
        "cli.command_s": ran,
        "cli.help_s": help_wall,
        "cli.modules_imported": float(modules),
    }
