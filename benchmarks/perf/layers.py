"""Per-layer attribution for the traced run.

Nothing in ``src/`` is edited or patched: spans are recorded *around*
calls into public functions.  :class:`SpanWrapper` wraps what a
workload injects into ``sweep`` (the process factory, the adversary
makers, the sizer hooks, the predicate) and, for ``fuzz-campaign``,
re-registers each fuzz target with a wrapped builder through
``repro.fuzz.protocols.register``.  The wrappers open spans on the
active ``Observer``, so they nest with the spans the program already
records (``sweep.execute``, ``sweep.cell``, ``engine.run``,
``eig.decision``, ``fuzz.*``) under one ``bench.pass`` root.

A span's *self time* is its duration minus what its child spans cover;
self times of the whole tree add up to ``bench.pass`` exactly, and the
root's own self time is reported as ``unattributed_share``.

Which span belongs to which layer is :data:`LAYER_SPANS`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

from repro.obs.core import Observer, span
from repro.obs.spans import ProfileSnapshot


def _timed(name: str, function: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(name):
            return function(*args, **kwargs)

    return wrapper


class SpanWrapper:
    """Wraps a workload's injected callables in spans; counts rounds."""

    def __init__(self) -> None:
        self.rounds = 0
        self._building = False
        self._classes: Dict[Tuple[type, bool], type] = {}

    # -- processes ---------------------------------------------------------

    def _process_class(self, cls: type, leader: bool) -> type:
        """``cls`` with ``outgoing``/``receive`` timed; same layout.

        The engine builds every processor of an execution before the
        first ``outgoing`` call and calls processors in build order, so
        the first one built after a round ran is the execution's
        *leader*: its ``outgoing`` calls count the rounds.
        """
        timed = self._classes.get((cls, leader))
        if timed is not None:
            return timed
        wrapper = self

        def outgoing(self: Any, round_number: int) -> Any:
            if leader:
                wrapper.rounds += 1
                wrapper._building = False
            with span("protocol.outgoing"):
                return cls.outgoing(self, round_number)

        def receive(self: Any, round_number: int, incoming: Any) -> None:
            with span("protocol.receive"):
                cls.receive(self, round_number, incoming)

        timed = type(cls)(cls.__name__, (cls,), {
            "__slots__": (),
            "__module__": cls.__module__,
            "__qualname__": cls.__qualname__,
            "outgoing": outgoing,
            "receive": receive,
        })
        self._classes[(cls, leader)] = timed
        return timed

    def factory(self, inner: Callable[..., Any]) -> Callable[..., Any]:
        def build(process_id: int, config: Any, value: Any) -> Any:
            with span("protocol.build"):
                process = inner(process_id, config, value)
            leader = not self._building
            self._building = True
            process.__class__ = self._process_class(type(process), leader)
            return process

        return build

    # -- adversaries -------------------------------------------------------

    def _maker(self, inner: Callable[..., Any]) -> Callable[..., Any]:
        def make(faulty: Sequence[int]) -> Any:
            adversary = inner(faulty)
            # Instance attribute shadows the method; the class (and so
            # the name the event log records) is untouched.
            adversary.outgoing = _timed("adversary.outgoing", adversary.outgoing)
            return adversary

        return make

    # -- workloads ---------------------------------------------------------

    def sweep_grid(self, grid: Dict[str, Any]) -> Dict[str, Any]:
        """``grid`` with every injected callable wrapped."""
        wrapped = dict(grid)
        wrapped["factory"] = self.factory(grid["factory"])
        wrapped["adversary_makers"] = [
            (name, self._maker(maker))
            for name, maker in grid["adversary_makers"]
        ]
        for key, name in (
            ("sizer", "metering.sizer"),
            ("is_null", "metering.is_null"),
            ("predicate", "analysis.predicate"),
        ):
            if grid.get(key) is not None:
                wrapped[key] = _timed(name, grid[key])
        return wrapped

    @contextlib.contextmanager
    def fuzz_specs(self, protocols: Sequence[str]) -> Iterator[None]:
        """Re-register ``protocols`` with timed builders for a scope.

        The campaign builds its adversary itself, so on
        ``fuzz-campaign`` adversary time stays inside ``engine.run``.
        """
        from repro.fuzz.protocols import get_spec, register, unregister

        originals = [get_spec(name) for name in protocols]
        for spec in originals:
            unregister(spec.name)
            register(dataclasses.replace(
                spec,
                build=lambda config, build=spec.build: self.factory(
                    build(config)
                ),
            ))
        try:
            yield
        finally:
            for spec in originals:
                unregister(spec.name)
                register(spec)


# -- attribution -------------------------------------------------------------


def self_times(snapshot: ProfileSnapshot) -> Dict[str, float]:
    """Per span path: total seconds minus what direct children cover."""
    covered: Dict[str, float] = {}
    for path, (_count, total_s, _max) in snapshot.items():
        parent = path.rpartition("/")[0]
        if parent:
            covered[parent] = covered.get(parent, 0.0) + total_s
    return {
        path: total_s - covered.get(path, 0.0)
        for path, (_count, total_s, _max) in snapshot.items()
    }


#: Span names (last path segment) per layer.  ``bench.pass`` is the
#: root: whatever it does not hand to a child span is unattributed.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    # repro.runtime: round loop, delivery, scheduler dispatch.
    "runtime": ("engine.run",),
    # repro.compact / avalanche / fullinfo / agreement process logic.
    "protocol": ("protocol.build", "protocol.outgoing", "protocol.receive"),
    # repro.arrays through repro.fullinfo.decision's EIG resolution.
    "arrays": ("eig.decision",),
    "adversary": ("adversary.outgoing",),
    # repro.arrays.encoding / repro.compact.payload via the sizer hooks.
    "metering": ("metering.sizer", "metering.is_null"),
    "analysis": ("sweep.execute", "sweep.cell", "analysis.predicate"),
    "fuzz": (
        "fuzz.campaign", "fuzz.execute", "fuzz.consistency",
        "fuzz.differential", "fuzz.shrink",
    ),
    "cli": ("cli.invocation",),
    "unattributed": ("bench.pass",),
}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def span_metrics(
    profile: ProfileSnapshot,
    counters: Dict[str, int],
    gauges: Dict[str, float],
    rounds: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(metrics, layer_shares)`` of one traced pass.

    The metrics are span- and counter-derived; a layer the workload
    does not exercise reads 0 (no span of it opened, no counter
    moved).  ``layer_shares`` is each layer's self time over
    ``bench.pass``; the shares add up to 1.
    """
    selfs = self_times(profile)

    def named(path: str) -> str:
        return path.rpartition("/")[2]

    def total(name: str) -> float:
        return sum(
            total_s for path, (_c, total_s, _m) in profile.items()
            if named(path) == name
        )

    def calls(name: str) -> float:
        return float(sum(
            count for path, (count, _t, _m) in profile.items()
            if named(path) == name
        ))

    def self_of(*names: str) -> float:
        return sum(
            seconds for path, seconds in selfs.items() if named(path) in names
        )

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    def hit_ratio(cache: str) -> float:
        return _ratio(counter(f"{cache}.hit"), counter(f"{cache}.miss"))

    root = total("bench.pass")
    shares = {
        layer: self_of(*names) / root for layer, names in LAYER_SPANS.items()
    }
    metrics = {
        "bench.pass_s": root,
        "runtime.self_s": self_of("engine.run"),
        "runtime.self_share": shares["runtime"],
        "runtime.rounds": float(rounds),
        "runtime.deliveries": counter("net.messages"),
        "runtime.size_cache.hit_ratio": hit_ratio("net.size_cache"),
        "runtime.interned_size_cache.hit_ratio": hit_ratio(
            "net.interned_size_cache"
        ),
        "arrays.eig_decision_s": total("eig.decision"),
        "arrays.eig_decision.calls": calls("eig.decision"),
        "arrays.eig_decision_share": shares["arrays"],
        "arrays.intern.calls": (
            counter("arrays.intern.hit") + counter("arrays.intern.miss")
        ),
        "arrays.intern.hit_ratio": hit_ratio("arrays.intern"),
        "arrays.flat.rows": counter("arrays.flat.rows"),
        "arrays.shared_store.nodes": gauges.get(
            "arrays.shared_store.high_water_nodes", 0.0
        ),
        "protocol.receive_s": total("protocol.receive"),
        "protocol.outgoing_s": total("protocol.outgoing"),
        "protocol.receive.calls": calls("protocol.receive"),
        "protocol.self_share": shares["protocol"],
        "compact.expansion.hit_ratio": hit_ratio("compact.expansion"),
        "fullinfo.legality.hit_ratio": hit_ratio("fullinfo.legality"),
        "fullinfo.reconstruct.hit_ratio": hit_ratio("fullinfo.reconstruct"),
        "adversary.outgoing_s": total("adversary.outgoing"),
        "adversary.outgoing.calls": calls("adversary.outgoing"),
        "metering.sizer_s": total("metering.sizer"),
        "metering.sizer.calls": calls("metering.sizer"),
        "metering.is_null_s": total("metering.is_null"),
        "analysis.self_s": self_of("sweep.execute"),
        "analysis.cell_overhead_s": self_of("sweep.cell"),
        "analysis.predicate_s": total("analysis.predicate"),
        "fuzz.execute_s": total("fuzz.execute"),
        "fuzz.consistency_s": total("fuzz.consistency"),
        "fuzz.differential_s": total("fuzz.differential"),
        "fuzz.self_s": self_of(*LAYER_SPANS["fuzz"]),
        "fuzz.cases": counter("fuzz.cases"),
        "unattributed_share": shares["unattributed"],
    }
    return metrics, shares


def pool_metrics(
    gauges: Dict[str, float], chunks: float, pass_wall_s: float
) -> Dict[str, float]:
    """Executor utilisation of one pooled pass, from the pool gauges."""
    wall = gauges.get("pool.wall_s", 0.0)
    workers = gauges.get("pool.workers", 0.0)
    busy = sum(
        value for name, value in gauges.items()
        if name.startswith("pool.worker.") and name.endswith(".busy_s")
    )
    return {
        "analysis.pool.wall_s": wall,
        "analysis.pool.busy_s": busy,
        "analysis.pool.idle_share": (
            gauges.get("pool.idle_s", 0.0) / (workers * wall)
            if workers * wall else 0.0
        ),
        "analysis.pool.chunks": float(chunks),
        "analysis.pool.parent_self_s": pass_wall_s - wall if wall else 0.0,
    }


def observer_state(observer: Observer) -> Tuple[
    ProfileSnapshot, Dict[str, int], Dict[str, float]
]:
    return (
        observer.profile_snapshot(),
        observer.registry.counters(),
        observer.registry.gauges(),
    )
