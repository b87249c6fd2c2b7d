"""The six benchmark workloads.

Each workload turns ``--seed`` into a fixed grid of inputs (sweep
seeds, the campaign seed, ``run-ba --seed``) and runs that grid once
per *pass* through a public entry point of ``repro`` — the program only
ever sees the generated grid.  Why each workload exists is recorded in
``BENCHMARK.json`` and the README; sizes are tuned so one pass takes
about half a second on the reference box (see README, "Pass size").

A pass returns a :class:`PassOutcome`: how many executions ran, how
many failed their check, the metered bits, and the deterministic
counters that must read the same on every pass of a run.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import os
import pathlib
import random
import re
import subprocess
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays import persist
from repro.core.predicates import byzantine_agreement_predicate
from repro.obs.core import Observer, observing
from repro.obs.events import EventLog, read_log
from repro.obs.trace import check_closedness
from repro.types import SystemConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]

@dataclasses.dataclass
class PassOutcome:
    """What one pass did; ``counters`` must repeat exactly across passes."""

    executions: int
    failed: int
    bits: int
    counters: Dict[str, Any]
    #: The observer the pass ran under (traced and observed passes).
    observer: Optional[Observer] = None
    #: Bytes of event log the pass wrote (``observed-sweep`` only).
    event_bytes: int = 0


class Workload:
    """One workload: a grid built from the seed, run once per pass.

    :meth:`run_pass` takes ``scheduler`` and ``cache`` switches on top
    of the defaults (the per-layer probes re-run the grid under them).
    ``rss`` says whose peak memory a user of the workload pays for:
    this process, its largest child, or both.
    """

    name: str
    executions: int
    rss: str = "self"

    def observer(self, traced: bool) -> Optional[Observer]:
        """The observer a pass runs under; ``None`` is the null observer."""
        return Observer() if traced else None

    def warmup_observer(self) -> Optional[Observer]:
        """The observer of the untimed warm-up pass."""
        return self.observer(False)

    def run_pass(
        self,
        observer: Optional[Observer] = None,
        wrap: Optional[Any] = None,
        **switches: Any,
    ) -> PassOutcome:
        """Run the grid once; ``wrap`` is the traced run's span wrapper."""
        raise NotImplementedError

    def check_warmup(self, outcome: PassOutcome) -> int:
        """Extra output checks on the warm-up pass; returns failures."""
        return 0


@contextlib.contextmanager
def _observed(observer: Optional[Observer]) -> Iterator[None]:
    """Run a pass under ``observer`` with a ``bench.pass`` root span."""
    if observer is None:
        yield
        return
    with observing(observer, close=False), observer.span("bench.pass"):
        yield


def _patterns(config: SystemConfig, count: int) -> List[Dict[int, int]]:
    """``count`` mixed binary input patterns (the legacy bench's shape)."""
    return [
        {p: (p + shift) % 2 for p in config.process_ids}
        for shift in range(count)
    ]


def _sweep_seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _edge_fault_sets(config: SystemConfig, count: int) -> List[Tuple[int, ...]]:
    """The lowest ``t`` ids, then the highest ``t`` ids."""
    low = tuple(range(1, config.t + 1))
    high = tuple(range(config.n - config.t + 1, config.n + 1))
    return [low, high][:count]


class SweepWorkload(Workload):
    """A ``sweep(...)`` grid: patterns x fault sets x gallery x seeds."""

    def __init__(self, name: str, grid: Dict[str, Any], rss: str = "self"):
        self.name = name
        self.grid = grid
        self.rss = rss
        self.executions = (
            len(grid["input_patterns"])
            * len(grid["fault_sets"])
            * len(grid["adversary_makers"])
            * len(grid["seeds"])
        )

    def run_pass(self, observer=None, wrap=None, **switches):
        grid = dict(self.grid, **switches)
        # Pool workers run with spans off, so wrappers there would cost
        # calls and record nothing.
        if wrap is not None and (grid["workers"] or 1) == 1:
            grid = wrap.sweep_grid(grid)
        with _observed(observer):
            report = sweep(**grid)
        if observer is not None:
            observer.close()
        return PassOutcome(
            executions=report.executions,
            failed=len(report.violations),
            bits=report.total_bits(),
            counters={
                "executions": report.executions,
                "total_bits": report.total_bits(),
                "messages": sum(
                    o.result.metrics.total_messages for o in report.outcomes
                ),
                "max_rounds": report.max_rounds(),
            },
            observer=observer,
        )


class ObservedSweep(SweepWorkload):
    """The compact-BA grid streaming events and causal edges to disk."""

    def __init__(self, name: str, grid: Dict[str, Any], scratch: pathlib.Path):
        super().__init__(name, grid)
        self.log_path = scratch / "observed-sweep.jsonl"

    def observer(self, traced: bool) -> Observer:
        return Observer(events=EventLog(self.log_path), trace=True)

    def run_pass(self, observer=None, wrap=None, **switches):
        outcome = super().run_pass(observer, wrap, **switches)
        if observer is not None and observer.events_on:
            data = observer.events.path.read_bytes()
            outcome.event_bytes = len(data)
            # The closing profile record carries wall times, so bytes
            # vary between passes; the record count does not.
            outcome.counters["event_records"] = data.count(b"\n")
        return outcome

    def check_warmup(self, outcome: PassOutcome) -> int:
        return len(check_closedness(read_log(self.log_path)))


class FuzzWorkload(Workload):
    """``run_campaign`` over every registered protocol."""

    def __init__(self, name: str, settings: Any):
        self.name = name
        self.settings = settings
        self.executions = settings.cases * len(settings.protocols)

    def warmup_observer(self) -> Observer:
        # The campaign report carries no bit totals; a counters-only
        # observer on the untimed pass meters them.
        return Observer(spans=False)

    def run_pass(self, observer=None, wrap=None, **switches):
        from repro.fuzz.campaign import run_campaign

        cache = switches.pop("cache", None)
        settings = dataclasses.replace(self.settings, **switches)
        scope = contextlib.nullcontext() if wrap is None else wrap.fuzz_specs(
            settings.protocols
        )
        cached = (
            contextlib.nullcontext() if cache is None
            else persist.using_cache(cache)
        )
        with scope, cached, _observed(observer):
            report = run_campaign(settings)
        counters = {
            "executions": report.executions,
            "report_sha256": hashlib.sha256(
                report.to_json().encode()
            ).hexdigest(),
        }
        bits = 0
        if observer is not None and observer.counters_on:
            registry = observer.registry
            bits = registry.counter("net.bits")
            counters.update(
                net_bits=bits,
                net_messages=registry.counter("net.messages"),
                runs=registry.counter("runs"),
            )
        return PassOutcome(
            executions=report.executions,
            failed=len(report.failures) + len(report.differential_failures),
            bits=bits,
            counters=counters,
            observer=observer,
        )


_DECISIONS = re.compile(r"^decisions: (\{.*\})$", re.MULTILINE)
_ROUNDS = re.compile(r"^rounds: (\d+)$", re.MULTILINE)
_BITS = re.compile(r"^message bits: (\d+)$", re.MULTILINE)


def child_env() -> Dict[str, str]:
    """The environment ``python -m repro`` children run under."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


class CliWorkload(Workload):
    """Fresh ``python -m repro run-ba`` processes, one per seed."""

    rss = "child"

    def __init__(self, name: str, seeds: List[int]):
        self.name = name
        self.seeds = seeds
        self.executions = len(seeds)

    def command(self, seed: int, scheduler: Optional[str] = None) -> List[str]:
        argv = [
            sys.executable, "-m", "repro", "run-ba", "--t", "1",
            "--adversary", "equivocator", "--seed", str(seed),
        ]
        if scheduler is not None:
            argv += ["--scheduler", scheduler]
        return argv

    def run_pass(self, observer=None, wrap=None, **switches):
        env = child_env()
        if switches.get("cache") is not None:
            env[persist.CACHE_ENV] = str(switches["cache"])
        failed = bits = 0
        outputs = []
        with _observed(observer):
            for seed in self.seeds:
                with (
                    observer.span("cli.invocation") if observer is not None
                    else contextlib.nullcontext()
                ):
                    done = subprocess.run(
                        self.command(seed, switches.get("scheduler")),
                        env=env, cwd=ROOT, capture_output=True, text=True,
                        timeout=60,
                    )
                parsed = _parse_run_ba(done)
                outputs.append(parsed)
                if parsed is None:
                    failed += 1
                else:
                    bits += parsed[2]
        return PassOutcome(
            executions=len(self.seeds),
            failed=failed,
            bits=bits,
            counters={"outputs": outputs},
            observer=observer,
        )


def _parse_run_ba(
    done: "subprocess.CompletedProcess[str]",
) -> Optional[Tuple[str, int, int]]:
    """``(decisions, rounds, bits)`` of a clean agreeing run, else ``None``."""
    decisions = _DECISIONS.search(done.stdout)
    rounds = _ROUNDS.search(done.stdout)
    bits = _BITS.search(done.stdout)
    if done.returncode != 0 or not (decisions and rounds and bits):
        return None
    try:
        decided = ast.literal_eval(decisions.group(1))
    except (ValueError, SyntaxError):
        return None
    if not decided or len(set(decided.values())) != 1:
        return None  # correct processors disagree
    return decisions.group(1), int(rounds.group(1)), int(bits.group(1))


# -- sizes ---------------------------------------------------------------------
#
# Full sizes give passes of roughly half a second on the reference box;
# smoke sizes only prove the plumbing.  `n`/`t` are the ISSUE's: the
# headline paths at n=13, t=4; the observed grid at n=10, t=3; fuzz at
# n=7, t=2.


def _compact_grid(
    config: SystemConfig, patterns: int, faults: int, seeds: List[int],
    workers: Optional[int],
) -> Dict[str, Any]:
    from repro.compact.byzantine_agreement import (
        compact_ba_factory,
        compact_ba_rounds,
    )
    from repro.compact.payload import compact_sizer, payload_is_null

    return dict(
        factory=compact_ba_factory(config, [0, 1], default=0, k=1),
        config=config,
        input_patterns=_patterns(config, patterns),
        fault_sets=_edge_fault_sets(config, faults),
        adversary_makers=standard_adversary_makers(),
        seeds=seeds,
        predicate=byzantine_agreement_predicate(),
        max_rounds=compact_ba_rounds(config.t, 1) + 1,
        sizer=compact_sizer(config, 2),
        is_null=payload_is_null,
        workers=workers,
    )


def _compact_sweep(seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    config = SystemConfig(n=7, t=2) if smoke else SystemConfig(n=13, t=4)
    return SweepWorkload("compact-sweep", _compact_grid(
        config, patterns=1, faults=2, seeds=_sweep_seeds(seed, 1), workers=1,
    ))


def _eig_sweep(seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    from repro.agreement.eig_agreement import eig_agreement_factory
    from repro.fullinfo.protocol import full_information_sizer

    config = SystemConfig(n=7, t=2) if smoke else SystemConfig(n=13, t=4)
    return SweepWorkload("eig-sweep", dict(
        factory=eig_agreement_factory(config, [0, 1], default=0),
        config=config,
        input_patterns=_patterns(config, 1),
        fault_sets=_edge_fault_sets(config, 1),
        adversary_makers=standard_adversary_makers(),
        seeds=_sweep_seeds(seed, 1 if smoke else 3),
        predicate=byzantine_agreement_predicate(),
        max_rounds=config.t + 2,
        sizer=full_information_sizer(2, config.n),
        workers=1,
    ))


def _fuzz_campaign(seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    from repro.fuzz.campaign import CampaignSettings
    from repro.fuzz.protocols import CATALOG_PROTOCOLS

    return FuzzWorkload("fuzz-campaign", CampaignSettings(
        seed=seed,
        cases=4 if smoke else 25,
        n=7,
        t=2,
        protocols=CATALOG_PROTOCOLS,
        workers=1,
    ))


def _pool_sweep(seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    from repro.avalanche.protocol import avalanche_factory

    config = SystemConfig(n=7, t=2) if smoke else SystemConfig(n=13, t=4)
    return SweepWorkload("pool-sweep", dict(
        factory=avalanche_factory(),
        config=config,
        input_patterns=_patterns(config, 2),
        fault_sets=_edge_fault_sets(config, 2),
        adversary_makers=standard_adversary_makers(),
        seeds=_sweep_seeds(seed, 2 if smoke else 12),
        run_full_rounds=8,
        workers=2,
    ), rss="self+child")


def _observed_sweep(seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    config = SystemConfig(n=7, t=2) if smoke else SystemConfig(n=10, t=3)
    return ObservedSweep("observed-sweep", _compact_grid(
        config, patterns=1 if smoke else 2, faults=1 if smoke else 2,
        seeds=_sweep_seeds(seed, 1), workers=None,
    ), scratch)


def _cli_cold(seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    return CliWorkload("cli-cold", _sweep_seeds(seed, 1 if smoke else 2))


_BUILDERS: Dict[str, Callable[[int, bool, pathlib.Path], Workload]] = {
    "compact-sweep": _compact_sweep,
    "eig-sweep": _eig_sweep,
    "fuzz-campaign": _fuzz_campaign,
    "pool-sweep": _pool_sweep,
    "observed-sweep": _observed_sweep,
    "cli-cold": _cli_cold,
}


NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, smoke: bool, scratch: pathlib.Path) -> Workload:
    """The workload ``name`` with its inputs generated from ``seed``."""
    return _BUILDERS[name](seed, smoke, scratch)
