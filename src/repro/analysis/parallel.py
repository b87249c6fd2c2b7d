"""Forked execution of sweep grids.

A sweep grid (inputs x fault sets x adversaries x seeds) is
embarrassingly parallel: every cell runs an independent execution
whose randomness is fully determined by the cell's own seed (the
engine derives all substreams through
:func:`repro.runtime.rng.derive_rng`), and cells never communicate.
``workers=N`` runs the cells on the calling process and ``N - 1``
children it forks with :func:`os.fork`, each pulling fixed-size chunks
from one shared pipe of chunk indices, under one hard guarantee:
**the report is a pure function of the grid**, byte-for-byte identical
for any worker count, including the in-process ``workers=1`` path.

Determinism is engineered, not assumed: every cell is a picklable
:class:`SweepCell` whose execution depends only on the cell and the
shared :class:`SweepContext` (fresh adversary per cell, seed-derived
RNG); every process runs the *same* per-cell function,
:func:`run_cell`, and passes each outcome through :func:`_encode`
where the cell ran and :func:`_decode` once, in cell order (never
completion order), where the report is built.

Sweep contexts hold closures (factories, judges) that pickle refuses,
so a child reads the context from the frame it was forked in and sends
back only ``bytes``.  Where the cell ran, the judge (a sweep's
predicate, a campaign's oracles) reads the live execution; then live
:class:`~repro.runtime.node.Process` objects become
:class:`ProcessSummary` stubs and traces are dropped.  No
:func:`os.fork`, a failed fork, a dead child or an outcome that does
not pickle degrades to the serial path with a warning.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import pickle
import selectors
import signal
import warnings
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import repro.obs.core as _obs
from repro.analysis.sweeps import AdversaryMaker, Judge, SweepOutcome
from repro.obs.spans import now as _now
from repro.runtime.engine import ExecutionResult, ProcessFactory, run_protocol
from repro.types import ProcessId, Round, SystemConfig, Value, is_bottom

#: Modules a cell imports on first use (numpy comes with the flat EIG
#: sweep; the adversaries' RNG needs it too).  :func:`execute_cells`
#: imports them once before it forks, so children inherit them instead
#: of each child of each sweep importing them again.  (A child records
#: no events, so it never renders a payload.)
_PRELOAD = ("repro.arrays.flat",)

#: Target number of chunks per worker.  More than one chunk per worker
#: smooths load imbalance (cells differ in round counts); the constant
#: is deliberately fixed so chunking is deterministic.
_CHUNKS_PER_WORKER = 4

#: Bytes of a chunk index on the task pipe and of a frame's length on a
#: result pipe.
_INDEX_BYTES, _LENGTH_BYTES = 4, 8


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One grid cell as a picklable task spec.

    The input pattern, the fault set, which adversary maker to
    instantiate (by index: makers are often lambdas and do not
    pickle), and the seed all substreams derive from.
    """

    index: int
    inputs: Dict[ProcessId, Value]
    faulty: Tuple[ProcessId, ...]
    adversary_name: str
    adversary_index: int
    seed: int


@dataclasses.dataclass
class SweepContext:
    """The grid-wide constants shared by every cell: not picklable in
    general (factories and judges are closures), inherited by a fork."""

    factory: ProcessFactory
    config: SystemConfig
    adversary_makers: Tuple[Tuple[str, AdversaryMaker], ...]
    judge: Optional[Judge]
    max_rounds: int
    run_full_rounds: Optional[int]
    sizer: Optional[Callable[[Any], int]]
    is_null: Optional[Callable[[Any], bool]]


class ProcessSummary:
    """Picklable stand-in for a live process in portable results: the
    decision and its round, which :class:`ExecutionResult` consumers
    read, and the :meth:`has_decided` / :meth:`snapshot` sweeps use."""

    __slots__ = ("process_id", "decision", "decision_round")

    def __init__(self, process_id: ProcessId, decision: Value,
                 decision_round: Optional[Round]):
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
        return self.__reduce__() == other.__reduce__()

    def __repr__(self) -> str:
        return (f"ProcessSummary({self.process_id}, {self.decision!r}, "
                f"round={self.decision_round})")

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return ProcessSummary, (self.process_id, self.decision, self.decision_round)


def portable_result(result: ExecutionResult) -> ExecutionResult:
    """``result`` with unpicklable parts replaced, picklable parts kept.

    Live process objects become :class:`ProcessSummary` stubs and the
    trace is dropped.  Everything quantitative (decisions, rounds,
    metrics) is untouched.
    """
    processes = {
        pid: ProcessSummary(pid, process.decision, process.decision_round)
        for pid, process in result.processes.items()
    }
    return dataclasses.replace(result, trace=None, processes=processes)


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

    Every process of every worker count calls this, so a report's
    content cannot depend on which process produced it.  The context's
    judge reads the live result where the cell ran; a judge that raises
    is recorded as the outcome's ``error``, never aborting the grid.
    Then the result is stripped for process-boundary transport, on
    every path, keeping reports comparable bit-for-bit.
    """
    observer = _obs.ACTIVE
    if observer is not None and observer.events_on:
        observer.emit(
            "cell_start", index=cell.index, adversary=cell.adversary_name,
            seed=cell.seed, faulty=list(cell.faulty),
        )
    _name, maker = context.adversary_makers[cell.adversary_index]
    with _obs.span("sweep.cell"):
        result = run_protocol(
            context.factory, context.config, cell.inputs,
            adversary=maker(list(cell.faulty)), max_rounds=context.max_rounds,
            run_full_rounds=context.run_full_rounds, sizer=context.sizer,
            is_null=context.is_null, seed=cell.seed,
        )
    violations: Optional[Tuple[str, ...]] = None
    error: Optional[str] = None
    if context.judge is not None:
        try:
            violations = tuple(context.judge(result))
        except Exception as raised:  # surfaced per-cell, never aborts the grid
            error = f"{type(raised).__name__}: {raised}"
    outcome = SweepOutcome(
        inputs=dict(cell.inputs), faulty=cell.faulty,
        adversary_name=cell.adversary_name, seed=cell.seed,
        result=portable_result(result), violations=violations, error=error,
    )
    if observer is not None:
        observer.count("sweep.cells")
        if observer.events_on:
            observer.emit(
                "cell_end", index=cell.index, holds=outcome.predicate_holds
            )
    return outcome


def _chunked(cells: List[SweepCell], workers: int) -> List[List[SweepCell]]:
    """Deterministic contiguous chunks, ~``_CHUNKS_PER_WORKER`` per worker."""
    size = max(1, math.ceil(len(cells) / (workers * _CHUNKS_PER_WORKER)))
    return [cells[start:start + size] for start in range(0, len(cells), size)]


def _encode(outcome: SweepOutcome) -> bytes:
    """The outcome's standalone byte form, made where its cell ran.

    Outcomes of one process share subobjects, and pickle encodes that
    sharing as memo references, so a chunk pickled whole would
    serialize differently per worker count.  One pickle per outcome
    gives every outcome its own object graph on decoding — singletons
    like :data:`~repro.types.BOTTOM` survive by ``__reduce__`` identity.
    """
    return pickle.dumps(outcome)


def _decode(blob: bytes) -> SweepOutcome:
    """The outcome an :func:`_encode` blob stands for, sharing nothing;
    called once per outcome, where the report is built."""
    return pickle.loads(blob)


def _run_serial(
    context: SweepContext, cells: Sequence[SweepCell]
) -> List[SweepOutcome]:
    return [_decode(_encode(run_cell(context, cell))) for cell in cells]


def _degrade_to_serial(
    context: SweepContext, cells: Sequence[SweepCell], reason: str
) -> List[SweepOutcome]:
    """The serial path for a sweep that lost its pool, made visible: a
    warning to the caller of :func:`execute_cells`, and a
    ``sweep.pool.degraded`` count that ``repro status`` shows."""
    warnings.warn(reason, RuntimeWarning, stacklevel=3)
    observer = _obs.ACTIVE
    if observer is not None:
        observer.count("sweep.pool.degraded")
    with _obs.span("sweep.execute"):
        return _run_serial(context, cells)


def execute_cells(
    context: SweepContext, cells: Sequence[SweepCell], workers: int
) -> List[SweepOutcome]:
    """Run ``cells`` on ``workers`` processes; outcomes in cell order.

    ``workers <= 1`` (or a grid of fewer than two cells) takes the
    in-process reference path; otherwise this process and ``workers -
    1`` forked children pull chunks from one task pipe (:class:`_Pool`).
    No :func:`os.fork`, a failed fork, a dead child or an outcome that
    does not pickle degrades to the reference path
    (:func:`_degrade_to_serial`); a cell's own exception propagates as
    it would serially.  Every child is reaped before this returns.
    """
    cells = list(cells)
    if workers <= 1 or len(cells) < 2:
        with _obs.span("sweep.execute"):
            return _run_serial(context, cells)
    if not hasattr(os, "fork"):
        return _degrade_to_serial(
            context, cells, "parallel sweep needs os.fork; running serially"
        )
    for module in _PRELOAD:
        importlib.import_module(module)
    observer = _obs.ACTIVE
    chunks = _chunked(cells, workers)
    if observer is not None and observer.events_on:
        # Announce the plan so `repro status` can compute progress
        # for an interrupted run from the artifact alone.
        observer.emit(
            "rollup", scope="plan", index=0, cells=len(cells), counters={},
        )
    pool = _Pool(context, chunks, observer, min(workers, len(chunks)))
    started = _now()
    try:
        with _obs.span("sweep.execute"):
            # No chunk, the parent's own included, records into the
            # caller's observer: every process runs its cells alike.
            _obs.deactivate()
            try:
                outcomes = pool.run()
            finally:
                pool.close()
                if observer is not None:
                    _obs.activate(observer)
    except _PoolFailure as failure:
        return _degrade_to_serial(
            context, cells,
            f"parallel sweep degraded to serial execution: {failure}",
        )
    pool.record_stats(_now() - started)
    return outcomes


#: What a chunk returns: ``(blobs, pid, busy seconds, counters)``, or
#: the exception one of its cells raised.
_ChunkResult = Union[Tuple[List[bytes], int, float, Dict[str, int]], Exception]


class _PoolFailure(Exception):
    """The pool, not a cell, failed: the sweep runs serially instead."""


def _run_chunk(
    context: SweepContext, cells: List[SweepCell], observed: bool
) -> _ChunkResult:
    """Run one chunk, no observer active on entry: one :func:`_encode`
    blob per cell.  When the caller counts, a chunk-local observer ships
    home the per-cell sums (``net.bits``, ...), not the cache
    ``.hit``/``.miss`` splits, which depend on which chunks shared a
    process.  The pid reaches only the slot numbering."""
    started = _now()
    chunk_observer = _obs.Observer(spans=False) if observed else None
    if chunk_observer is not None:
        _obs.activate(chunk_observer)
    try:
        blobs = [_encode(run_cell(context, cell)) for cell in cells]
    except Exception as raised:  # re-raised by the parent, in cell order
        return raised
    finally:
        _obs.deactivate()
    counters = {} if chunk_observer is None else {
        name: value
        for name, value in chunk_observer.registry.counters().items()
        if not name.endswith((".hit", ".miss"))
    }
    return blobs, os.getpid(), _now() - started, counters


def _next_task(tasks: int) -> Optional[int]:
    """The next chunk index off the task pipe; ``None`` once it is empty.
    Every index is in before the first fork, and a read this small is
    atomic: each index reaches exactly one process."""
    data = os.read(tasks, _INDEX_BYTES)
    return int.from_bytes(data, "little") if data else None


def _child(context: SweepContext, chunks: List[List[SweepCell]],
           observed: bool, tasks: int, out: int) -> None:
    """Run chunks until the pipe is empty or one raises, one
    length-prefixed ``pickle((index, result))`` frame each to ``out``;
    leave by :func:`os._exit`, never returning into the caller's frames."""
    status = 1
    try:
        while (index := _next_task(tasks)) is not None:
            result = _run_chunk(context, chunks[index], observed)
            frame = pickle.dumps((index, result))
            view = memoryview(len(frame).to_bytes(_LENGTH_BYTES, "little") + frame)
            while view:
                view = view[os.write(out, view):]
            if isinstance(result, Exception):
                break
        status = 0
    finally:
        os._exit(status)


class _Pool:
    """The parent's side of one forked sweep.  The parent is a worker
    too: after each of its chunks it drains the result pipes (no child
    waits on a full one for longer than a chunk), collecting chunks in
    index order — telemetry, then, once idle, decoding — so no report
    or deterministic record depends on which process ran what."""

    def __init__(self, context: SweepContext, chunks: List[List[SweepCell]],
                 observer: Optional[_obs.Observer], workers: int) -> None:
        self.context, self.chunks, self.observer = context, chunks, observer
        self.workers = workers
        self.observed = observer is not None
        self.results: List[Optional[_ChunkResult]] = [None] * len(chunks)
        #: The outcomes of each chunk decoded so far, in chunk order.
        self.decoded: List[List[SweepOutcome]] = []
        self.collected = 0
        self.tasks = -1  # the task pipe's read end, once it exists
        self.pids: List[int] = []
        #: Each open result pipe's bytes of a frame not yet complete.
        self.unread: Dict[int, bytearray] = {}
        self.selector = selectors.DefaultSelector()
        #: pid -> [slot, cells, busy seconds]; a slot is the process's
        #: first appearance in chunk order, so no pid reaches the log.
        self.slots: Dict[int, List[Any]] = {}

    def run(self) -> List[SweepOutcome]:
        try:
            self._fork(self.workers - 1)
        except OSError as error:
            raise _PoolFailure(error) from error
        while (index := _next_task(self.tasks)) is not None:
            self.results[index] = _run_chunk(
                self.context, self.chunks[index], self.observed
            )
            self._drain(0)
        # Decoding waits for idle time: the parent runs chunks first.
        while self.collected < len(self.chunks) and self.unread:
            idle = len(self.decoded) == self.collected
            if not idle:
                self._decode_next()
            self._drain(None if idle else 0)
        if self.collected < len(self.chunks):
            raise _PoolFailure("a sweep worker died before returning its chunk")
        while len(self.decoded) < self.collected:
            self._decode_next()
        return [outcome for chunk in self.decoded for outcome in chunk]

    def _decode_next(self) -> None:
        blobs = self.results[len(self.decoded)][0]  # type: ignore[index]
        self.decoded.append([_decode(blob) for blob in blobs])

    def _fork(self, children: int) -> None:
        # At most 4 indices a worker: a pipe holds them all (16,384 in
        # Linux's default 64 KiB) below 4,096 workers.
        self.tasks, feed = os.pipe()
        try:
            os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                                    for i in range(len(self.chunks))))
        finally:
            os.close(feed)
        for _ in range(children):
            read_end, write_end = os.pipe()
            self.unread[read_end] = bytearray()
            self.selector.register(read_end, selectors.EVENT_READ)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(self.context, self.chunks, self.observed,
                           self.tasks, write_end)
            finally:
                os.close(write_end)
            self.pids.append(pid)

    def _drain(self, timeout: Optional[float]) -> None:
        """Read what the children sent (waiting up to ``timeout``), then
        collect every chunk whose predecessors are in."""
        for key, _events in self.selector.select(timeout):
            data = os.read(key.fd, 1 << 20)
            if not data:  # the child left; a partial frame means it died
                self.selector.unregister(key.fd)
                os.close(key.fd)
                del self.unread[key.fd]
                continue
            buffer = self.unread[key.fd]
            buffer += data
            while len(buffer) >= _LENGTH_BYTES:
                end = _LENGTH_BYTES + int.from_bytes(buffer[:_LENGTH_BYTES], "little")
                if len(buffer) < end:
                    break
                try:
                    index, result = pickle.loads(buffer[_LENGTH_BYTES:end])
                except Exception as error:  # e.g. an exception type that
                    raise _PoolFailure(error) from error  # does not rebuild
                del buffer[:end]
                self.results[index] = result
        while self.collected < len(self.chunks):
            result = self.results[self.collected]
            if result is None:
                return
            if isinstance(result, pickle.PicklingError):
                raise _PoolFailure(result) from result
            if isinstance(result, Exception):
                raise result
            self._record(self.collected, *result)
            self.collected += 1

    def _record(self, index: int, blobs: List[bytes], pid: int,
                busy_s: float, counters: Dict[str, int]) -> None:
        """Collect chunk ``index``: its telemetry, in chunk order."""
        observer = self.observer
        if observer is not None:
            row = self.slots.setdefault(pid, [len(self.slots), 0, 0.0])
            row[1] += len(blobs)
            row[2] += busy_s
            observer.registry.absorb(counters)
            observer.count("pool.chunks")
            if observer.events_on:
                observer.emit("chunk", index=index, cells=len(blobs))
                # The counter delta this chunk contributed
                # (deterministic: chunks are absorbed in index order).
                observer.emit_rollup("chunk", index, len(blobs))
                observer.emit_nondet(
                    "worker_sample", chunk=index, worker=row[0],
                    cells=len(blobs), busy_s=round(busy_s, 6),
                )

    def close(self) -> None:
        """Close every pipe end; kill and reap every child."""
        self.selector.close()
        for fd in self.unread:
            os.close(fd)
        self.unread.clear()
        if self.tasks >= 0:
            os.close(self.tasks)
        for pid in self.pids:
            try:
                os.kill(pid, signal.SIGKILL)  # a no-op on one that left
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped: the caller ignores SIGCHLD

    def record_stats(self, wall_s: float) -> None:
        """Fold the pool's utilization into gauges and the ``workers``
        event (nondeterministic), by slot; ``planned`` counts the parent."""
        observer = self.observer
        if observer is None:
            return
        busy = sum(row[2] for row in self.slots.values())
        idle_s = max(0.0, self.workers * wall_s - busy)
        observer.gauge("pool.workers", self.workers)
        observer.gauge("pool.wall_s", round(wall_s, 6))
        observer.gauge("pool.idle_s", round(idle_s, 6))
        rows = []
        for slot, cells_run, busy_s in self.slots.values():
            observer.gauge(f"pool.worker.{slot}.cells", cells_run)
            observer.gauge(f"pool.worker.{slot}.busy_s", round(busy_s, 6))
            rows.append({"cells": cells_run, "busy_s": round(busy_s, 6)})
        if observer.events_on:
            observer.emit_nondet(
                "workers", planned=self.workers, workers=rows,
                wall_s=round(wall_s, 6), idle_s=round(idle_s, 6),
            )
