"""Process-pool execution of sweep grids.

A sweep grid (inputs x fault sets x adversaries x seeds) is
embarrassingly parallel: every cell runs an independent execution
whose randomness is fully determined by the cell's own seed (the
engine derives all substreams through
:func:`repro.runtime.rng.derive_rng`), and cells never communicate.
This module fans the cells out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping one hard
guarantee: **the report is a pure function of the grid**, byte-for-byte
identical for any worker count, including the in-process ``workers=1``
reference path.

Determinism is engineered, not assumed:

* every cell is described by a picklable :class:`SweepCell` value;
* a cell's execution depends only on the cell and the shared
  :class:`SweepContext` (fresh adversary per cell, seed-derived RNG);
* results are collected in submission order (never completion order),
  so chunking and scheduling cannot reorder outcomes;
* both the serial and the pooled paths run the *same* per-cell
  function, :func:`run_cell`, with the same portability rules, and
  pass every outcome through the same two functions: :func:`_encode`
  where the cell ran, :func:`_decode` once where the report is built.

Portability: sweep contexts hold closures (factories, decision rules)
that pickle refuses, so the pool uses the ``fork`` start method and
shares the context by process inheritance through a module global —
which in turn is why the worker entry points below must live at module
level (``fork`` workers resolve the submitted callable by qualified
name).  Where ``fork`` is unavailable or the pool cannot start, the
executor degrades gracefully to the serial path with a warning rather
than failing the sweep.

Every result is made *portable* where its cell ran: live
:class:`~repro.runtime.node.Process` objects (which may hold
unpicklable closures) are replaced by :class:`ProcessSummary` stubs
and traces are dropped.  Whatever needs the live execution — a sweep's
predicate, a fuzz campaign's oracles — is the context's ``judge`` and
runs just before that, so an outcome carries its verdict out of the
process that ran it.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs.core as _obs
from repro.analysis.sweeps import AdversaryMaker, Judge, SweepOutcome
from repro.obs.spans import now as _now
from repro.runtime.engine import ExecutionResult, ProcessFactory, run_protocol
from repro.types import ProcessId, Round, SystemConfig, Value, is_bottom

# Worker-entry machinery is module-level and communicates through a
# module global because the ``fork`` pool shares unpicklable context
# (factories, judges) by inheritance, not by argument passing:
# ``execute_cells`` sets the worker context before forking and clears
# it in a ``finally`` block.  ``_run_cell_chunk`` labels its timing
# sample with ``os.getpid()``, which reaches only the observer's
# nondeterministic worker-utilization section, never an outcome.

#: Modules a cell imports on first use (numpy comes with the flat EIG
#: sweep; the adversaries' RNG needs it too).  :func:`execute_cells`
#: imports them once before the pool forks, so workers inherit them
#: instead of each worker of each pool importing them again.
_PRELOAD = ("repro.arrays.flat", "repro.runtime.render")

#: Target number of chunks handed to each worker.  More than one chunk
#: per worker smooths load imbalance (cells differ in round counts);
#: the constant is deliberately fixed so chunking is deterministic.
_CHUNKS_PER_WORKER = 4


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One grid cell as a picklable task spec.

    Everything a worker needs to *identify* the execution: the input
    pattern, the fault set, which adversary maker to instantiate (by
    index into the context's maker tuple — makers themselves are often
    lambdas and do not pickle), and the seed all substreams derive
    from.
    """

    index: int
    inputs: Dict[ProcessId, Value]
    faulty: Tuple[ProcessId, ...]
    adversary_name: str
    adversary_index: int
    seed: int


@dataclasses.dataclass
class SweepContext:
    """The grid-wide constants shared by every cell.

    Not picklable in general (factories and judges are closures);
    shared with workers by fork inheritance.
    """

    factory: ProcessFactory
    config: SystemConfig
    adversary_makers: Tuple[Tuple[str, AdversaryMaker], ...]
    judge: Optional[Judge]
    max_rounds: int
    run_full_rounds: Optional[int]
    sizer: Optional[Callable[[Any], int]]
    is_null: Optional[Callable[[Any], bool]]


class ProcessSummary:
    """Picklable stand-in for a live process in portable results.

    Carries exactly the state :class:`ExecutionResult` consumers read
    off processes after the fact — the decision and when it was made —
    plus the introspection surface (:meth:`has_decided`,
    :meth:`snapshot`) sweep reporting uses.
    """

    __slots__ = ("process_id", "decision", "decision_round")

    def __init__(
        self,
        process_id: ProcessId,
        decision: Value,
        decision_round: Optional[Round],
    ):
        self.process_id = process_id
        self.decision = decision
        self.decision_round = decision_round

    def has_decided(self) -> bool:
        return not is_bottom(self.decision)

    def snapshot(self) -> Any:
        return {"decision": self.decision}

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ProcessSummary):
            return NotImplemented
        return (
            self.process_id == other.process_id
            and self.decision == other.decision
            and self.decision_round == other.decision_round
        )

    def __repr__(self) -> str:
        return (
            f"ProcessSummary({self.process_id}, {self.decision!r}, "
            f"round={self.decision_round})"
        )

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return ProcessSummary, (
            self.process_id, self.decision, self.decision_round
        )


def portable_result(result: ExecutionResult) -> ExecutionResult:
    """``result`` with unpicklable parts replaced, picklable parts kept.

    Live process objects become :class:`ProcessSummary` stubs and the
    trace is dropped.  Everything quantitative (decisions, rounds,
    metrics) is untouched.
    """
    return dataclasses.replace(
        result,
        trace=None,
        processes={
            process_id: ProcessSummary(
                process_id, process.decision, process.decision_round
            )
            for process_id, process in result.processes.items()
        },
    )


def build_cells(
    input_patterns: Iterable[Dict[ProcessId, Value]],
    fault_sets: Iterable[Sequence[ProcessId]],
    adversary_makers: Sequence[Tuple[str, AdversaryMaker]],
    seeds: Iterable[int],
) -> List[SweepCell]:
    """Flatten the grid into cells, in the sweep's canonical order.

    The nesting order (inputs, faults, adversaries, seeds) matches the
    historical serial loop, so reports keep their cell order across
    executor choices.
    """
    cells: List[SweepCell] = []
    index = 0
    for inputs in input_patterns:
        for faulty in fault_sets:
            for adversary_index, (name, _maker) in enumerate(adversary_makers):
                for seed in seeds:
                    cells.append(
                        SweepCell(
                            index=index,
                            inputs=dict(inputs),
                            faulty=tuple(faulty),
                            adversary_name=name,
                            adversary_index=adversary_index,
                            seed=int(seed),
                        )
                    )
                    index += 1
    return cells


def run_cell(context: SweepContext, cell: SweepCell) -> SweepOutcome:
    """Run, judge and make portable one cell — the single per-cell path.

    Both the serial and the pooled executors call this, so a report's
    content cannot depend on which executor produced it.  The context's
    judge reads the live result where the cell ran; a judge that raises
    is recorded as the outcome's ``error``, never aborting the grid.
    Then the result is stripped for process-boundary transport, on
    every path, keeping reports comparable bit-for-bit.
    """
    observer = _obs.ACTIVE
    if observer is not None and observer.events_on:
        observer.emit(
            "cell_start",
            index=cell.index,
            adversary=cell.adversary_name,
            seed=cell.seed,
            faulty=list(cell.faulty),
        )
    _name, maker = context.adversary_makers[cell.adversary_index]
    with _obs.span("sweep.cell"):
        result = run_protocol(
            context.factory,
            context.config,
            cell.inputs,
            adversary=maker(list(cell.faulty)),
            max_rounds=context.max_rounds,
            run_full_rounds=context.run_full_rounds,
            sizer=context.sizer,
            is_null=context.is_null,
            seed=cell.seed,
        )
    violations: Optional[Tuple[str, ...]] = None
    error: Optional[str] = None
    if context.judge is not None:
        try:
            violations = tuple(context.judge(result))
        except Exception as raised:  # surfaced per-cell, never aborts the grid
            error = f"{type(raised).__name__}: {raised}"
    outcome = SweepOutcome(
        inputs=dict(cell.inputs),
        faulty=cell.faulty,
        adversary_name=cell.adversary_name,
        seed=cell.seed,
        result=portable_result(result),
        violations=violations,
        error=error,
    )
    if observer is not None:
        observer.count("sweep.cells")
        if observer.events_on:
            observer.emit(
                "cell_end", index=cell.index, holds=outcome.predicate_holds
            )
    return outcome


#: Fork-inherited sweep context for pool workers.  Set by
#: :func:`execute_cells` immediately before the pool forks, cleared in
#: its ``finally``; workers read it through :func:`_run_cell_chunk`.
_WORKER_CONTEXT: Optional[SweepContext] = None

#: Fork-inherited flag: was the parent counting when the pool forked?
#: Workers cannot read ``_obs.ACTIVE`` for this — the first chunk a
#: worker runs clears it, and pool processes are reused across chunks.
_WORKER_OBSERVED = False


def _run_cell_chunk(
    cells: List[SweepCell],
) -> Tuple[List[bytes], int, float, Dict[str, int]]:
    """Worker entry point: run a chunk of cells against the inherited
    context; returns ``(blobs, worker_pid, busy_seconds, counters)``,
    one :func:`_encode` blob per cell — encoding is part of the
    worker's busy time, and a list of ``bytes`` costs the executor's
    own transport next to nothing.

    Must stay module-level — the pool transports it by qualified name.
    A fork-started worker inherits the parent's active observer; it is
    dropped first thing so workers never record events into a sink
    they do not own.  When the parent *was* observing, the chunk runs
    under a local counters-only observer instead and ships the
    scheduling-independent counters home (pure per-cell sums like
    ``net.bits`` or ``sweep.cells``; cache ``.hit``/``.miss`` splits
    depend on which chunks shared a worker process, so they stay
    worker-local).  The parent aggregates worker utilization from the
    returned pid/duration.
    """
    observed = _WORKER_OBSERVED
    _obs.deactivate()
    context = _WORKER_CONTEXT
    if context is None:
        raise RuntimeError(
            "sweep worker started without an inherited context (pool was "
            "not fork-started?)"
        )
    started = _now()
    counters: Dict[str, int] = {}
    if observed:
        chunk_observer = _obs.Observer(spans=False)
        _obs.activate(chunk_observer)
        try:
            blobs = [_encode(run_cell(context, cell)) for cell in cells]
        finally:
            _obs.deactivate()
        counters = {
            name: value
            for name, value in chunk_observer.registry.counters().items()
            if not name.endswith((".hit", ".miss"))
        }
    else:
        blobs = [_encode(run_cell(context, cell)) for cell in cells]
    return blobs, os.getpid(), _now() - started, counters


def _chunked(cells: List[SweepCell], workers: int) -> List[List[SweepCell]]:
    """Deterministic contiguous chunks, ~``_CHUNKS_PER_WORKER`` per worker."""
    chunk_size = max(
        1, math.ceil(len(cells) / (workers * _CHUNKS_PER_WORKER))
    )
    return [
        cells[start:start + chunk_size]
        for start in range(0, len(cells), chunk_size)
    ]


def _encode(outcome: SweepOutcome) -> bytes:
    """The outcome's standalone byte form, made where its cell ran.

    Outcomes of one process share subobjects (one config instance per
    worker, or grid-wide on the serial path), and pickle encodes that
    sharing topology as memo references, so identically-valued reports
    would serialize differently per worker count.  One pickle per
    outcome gives every outcome its own object graph on decoding —
    singletons like :data:`~repro.types.BOTTOM` survive by
    ``__reduce__`` identity.
    """
    return pickle.dumps(outcome)


def _decode(blob: bytes) -> SweepOutcome:
    """The outcome an :func:`_encode` blob stands for, sharing nothing.

    Called once per outcome, by the process that builds the report, on
    bytes this process or a worker it forked wrote.
    """
    return pickle.loads(blob)


def _run_serial(
    context: SweepContext, cells: Sequence[SweepCell]
) -> List[SweepOutcome]:
    return [_decode(_encode(run_cell(context, cell))) for cell in cells]


def _degrade_to_serial(
    context: SweepContext, cells: Sequence[SweepCell], reason: str
) -> List[SweepOutcome]:
    """The serial path for a sweep that lost its pool, made visible.

    Warns the caller of :func:`execute_cells` and counts
    ``sweep.pool.degraded`` on the active observer, so the run's own
    artifacts (``repro status``) show it.
    """
    warnings.warn(reason, RuntimeWarning, stacklevel=3)
    observer = _obs.ACTIVE
    if observer is not None:
        observer.count("sweep.pool.degraded")
    with _obs.span("sweep.execute"):
        return _run_serial(context, cells)


def execute_cells(
    context: SweepContext,
    cells: Sequence[SweepCell],
    workers: int,
) -> List[SweepOutcome]:
    """Run ``cells`` over ``workers`` processes; outcomes in cell order.

    ``workers <= 1`` (or a grid of fewer than two cells) takes the
    in-process reference path.  Pool start-up or transport failures —
    no ``fork`` start method, a broken pool, unpicklable outcomes —
    degrade to that same path with a :class:`RuntimeWarning` and a
    ``sweep.pool.degraded`` count on the active observer; protocol
    errors inside a cell are *not* masked and propagate as they would
    serially.
    """
    cells = list(cells)
    if workers <= 1 or len(cells) < 2:
        with _obs.span("sweep.execute"):
            return _run_serial(context, cells)
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:
        return _degrade_to_serial(
            context, cells,
            "parallel sweep needs the 'fork' start method; running serially",
        )

    global _WORKER_CONTEXT, _WORKER_OBSERVED
    for module in _PRELOAD:
        importlib.import_module(module)
    observer = _obs.ACTIVE
    _WORKER_CONTEXT = context
    _WORKER_OBSERVED = observer is not None and observer.counters_on
    try:
        chunks = _chunked(cells, workers)
        worker_count = min(workers, len(chunks))
        # A worker's slot is its first appearance in the deterministic
        # collection sequence, so telemetry never leaks raw pids or
        # their order into the log, and every record of one run —
        # ``worker_sample``, the ``pool.worker.<slot>.*`` gauges, the
        # ``workers`` event — numbers a worker the same way.
        slot_by_pid: Dict[int, int] = {}
        cells_by_slot: Dict[int, int] = {}
        busy_by_slot: Dict[int, float] = {}
        if observer is not None and observer.events_on:
            # Announce the plan so `repro status` can compute progress
            # for an interrupted run from the artifact alone.
            observer.emit(
                "rollup", scope="plan", index=0, cells=len(cells),
                counters={},
            )
        pool_started = _now()
        with _obs.span("sweep.execute"), ProcessPoolExecutor(
            max_workers=worker_count, mp_context=mp_context
        ) as pool:
            # Submission order == collection order: completion order can
            # never leak into the report.
            futures = [pool.submit(_run_cell_chunk, chunk) for chunk in chunks]
            outcomes: List[SweepOutcome] = []
            for chunk_index, future in enumerate(futures):
                blobs, worker_pid, busy_s, worker_counters = future.result()
                if observer is not None:
                    slot = slot_by_pid.setdefault(worker_pid, len(slot_by_pid))
                    cells_by_slot[slot] = cells_by_slot.get(slot, 0) + len(blobs)
                    busy_by_slot[slot] = busy_by_slot.get(slot, 0.0) + busy_s
                    if observer.counters_on:
                        observer.registry.absorb(worker_counters)
                    observer.count("pool.chunks")
                    if observer.events_on:
                        observer.emit(
                            "chunk", index=chunk_index, cells=len(blobs)
                        )
                        # Telemetry rollup: the counter delta this
                        # chunk contributed (deterministic — worker
                        # counters are absorbed in submission order).
                        observer.emit_rollup("chunk", chunk_index, len(blobs))
                        observer.emit_nondet(
                            "worker_sample",
                            chunk=chunk_index,
                            worker=slot,
                            cells=len(blobs),
                            busy_s=round(busy_s, 6),
                        )
                outcomes.extend(_decode(blob) for blob in blobs)
        if observer is not None:
            _record_pool_stats(
                observer, worker_count, _now() - pool_started,
                cells_by_slot, busy_by_slot,
            )
        return outcomes
    except (BrokenProcessPool, OSError, pickle.PicklingError) as error:
        return _degrade_to_serial(
            context, cells,
            f"parallel sweep degraded to serial execution: {error}",
        )
    finally:
        _WORKER_CONTEXT = None
        _WORKER_OBSERVED = False


def _record_pool_stats(
    observer: "_obs.Observer",
    worker_count: int,
    wall_s: float,
    cells_by_slot: Dict[int, int],
    busy_by_slot: Dict[int, float],
) -> None:
    """Fold one pool run's worker utilization into the observer.

    Everything here derives from the wall clock and worker scheduling,
    so it lands in gauges and the ``workers`` event — the log's
    explicitly nondeterministic section.  Workers are reported by the
    slots :func:`execute_cells` assigned in collection order, never by
    pid, keeping the *shape* stable across runs and every record of a
    worker under one number.  How many slots collected a chunk depends
    on OS scheduling; ``planned`` (the pool size ``idle_s`` is charged
    against) does not.
    """
    idle_s = max(0.0, worker_count * wall_s - sum(busy_by_slot.values()))
    observer.gauge("pool.workers", worker_count)
    observer.gauge("pool.wall_s", round(wall_s, 6))
    observer.gauge("pool.idle_s", round(idle_s, 6))
    workers_payload = []
    for slot, cells_run in sorted(cells_by_slot.items()):
        busy = round(busy_by_slot[slot], 6)
        observer.gauge(f"pool.worker.{slot}.cells", cells_run)
        observer.gauge(f"pool.worker.{slot}.busy_s", busy)
        workers_payload.append({"cells": cells_run, "busy_s": busy})
    if observer.events_on:
        observer.emit_nondet(
            "workers",
            planned=worker_count,
            workers=workers_payload,
            wall_s=round(wall_s, 6),
            idle_s=round(idle_s, 6),
        )
