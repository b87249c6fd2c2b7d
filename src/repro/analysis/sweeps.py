"""Execution sweeps: run a protocol across a grid of scenarios.

Experiments and users keep writing the same triple loop — input
patterns x fault placements x adversary strategies x seeds — and then
evaluating a correctness predicate on every outcome.  This module is
that loop as a library, with structured results.

The grid is embarrassingly parallel: cells share no state (every cell
builds a fresh adversary and derives its randomness from its own seed
through :func:`repro.runtime.rng.derive_rng`), so ``sweep(...,
workers=N)`` fans the cells out over a process pool via
:mod:`repro.analysis.parallel` and returns results identical for every
``N`` — see that module for the portability rules.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.adversary.byzantine import AdversaryMaker
# The gallery a sweep usually runs, importable from here as before.
from repro.adversary.byzantine import (
    standard_adversary_makers as standard_adversary_makers,
)
from repro.core.predicates import CorrectnessPredicate
from repro.runtime.engine import ExecutionResult, ProcessFactory
from repro.types import BOTTOM, ProcessId, SystemConfig, Value

# Judges one live execution where it ran: the violations it finds,
# empty when the execution is fine.
Judge = Callable[[ExecutionResult], Sequence[str]]


@dataclasses.dataclass
class SweepOutcome:
    """One cell of the sweep grid, judged where it ran.

    ``violations`` is what the judge found (``None`` when there was no
    judge or it raised).  ``predicate_holds`` is ``None`` both when no
    predicate was supplied and when the predicate *raised*; the two
    are distinguished by ``error``, which records the exception
    (``"TypeError: ..."``) in the latter case.  Errored cells count as
    violations — a predicate that cannot evaluate an outcome is a
    finding, not a pass.
    """

    inputs: Dict[ProcessId, Value]
    faulty: Tuple[ProcessId, ...]
    adversary_name: str
    seed: int
    result: ExecutionResult
    violations: Optional[Tuple[str, ...]]
    error: Optional[str] = None

    @property
    def predicate_holds(self) -> Optional[bool]:
        return None if self.violations is None else not self.violations

    def describe(self) -> str:
        if self.error is not None:
            status = f"ERROR {self.error}"
        elif self.predicate_holds is None:
            status = "?"
        else:
            status = "ok" if self.predicate_holds else "VIOLATION"
        return (
            f"[{status}] faulty={list(self.faulty)} "
            f"adversary={self.adversary_name} seed={self.seed} "
            f"decisions={sorted(map(repr, self.result.decided_values()))}"
        )


@dataclasses.dataclass
class SweepReport:
    """Aggregate over all cells."""

    outcomes: List[SweepOutcome]

    @property
    def executions(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[SweepOutcome]:
        """Cells where the predicate failed — or could not be evaluated."""
        return [
            outcome
            for outcome in self.outcomes
            if outcome.predicate_holds is False or outcome.error is not None
        ]

    @property
    def errors(self) -> List[SweepOutcome]:
        """The subset of cells whose predicate raised."""
        return [
            outcome for outcome in self.outcomes if outcome.error is not None
        ]

    def all_hold(self) -> bool:
        """Whether the predicate held on every execution."""
        return not self.violations

    def total_bits(self) -> int:
        return sum(o.result.metrics.total_bits for o in self.outcomes)

    def max_rounds(self) -> int:
        return max((o.result.rounds for o in self.outcomes), default=0)


def sweep(
    factory: ProcessFactory,
    config: SystemConfig,
    input_patterns: Iterable[Dict[ProcessId, Value]],
    fault_sets: Iterable[Sequence[ProcessId]],
    adversary_makers: Iterable[Tuple[str, AdversaryMaker]],
    seeds: Iterable[int] = (0,),
    predicate: Optional[CorrectnessPredicate] = None,
    max_rounds: int = 100,
    run_full_rounds: Optional[int] = None,
    sizer: Optional[Callable[[Any], int]] = None,
    is_null: Optional[Callable[[Any], bool]] = None,
    workers: Optional[int] = None,
    cache: Any = None,
    scheduler: Optional[str] = None,
) -> SweepReport:
    """Run the full grid and evaluate ``predicate`` on each outcome.

    ``adversary_makers`` must build a *fresh* adversary per call —
    strategies may carry per-execution state (ghost processes, stale
    caches).  The predicate receives the paper's
    ``(ans(E), F, I)`` triple; ``None`` skips evaluation.  A predicate
    that raises does not abort the sweep: the exception is captured in
    :attr:`SweepOutcome.error` and the cell is reported as a violation.

    ``workers`` is the number of processes the cells run on; ``None``
    (the default) and ``1`` run them in-process, the reference the
    pool must match.  Every cell goes through
    :func:`repro.analysis.parallel.execute_cells`: the predicate is
    judged where the cell ran, then the result is made *portable*
    (live process objects replaced by picklable summaries, traces
    dropped), and the report is identical for every ``N``.

    The sweep ends by releasing the shared-store registry
    (:func:`repro.arrays.store.release_shared_stores`): gauges are
    recorded and unrelated workloads start from empty pools.

    ``cache`` is inert; deleted by the next `benchmark` PR (ROADMAP
    item 1(a)).  ``scheduler`` is inert; deleted by the next
    `benchmark` PR (ROADMAP item 1(e)).
    """
    from repro.analysis import parallel  # deferred: parallel imports us
    from repro.arrays.store import release_shared_stores

    makers = list(adversary_makers)
    context = parallel.SweepContext(
        factory=factory,
        config=config,
        adversary_makers=tuple(makers),
        judge=None if predicate is None else _predicate_judge(predicate),
        max_rounds=max_rounds,
        run_full_rounds=run_full_rounds,
        sizer=sizer,
        is_null=is_null,
    )
    cells = parallel.build_cells(input_patterns, fault_sets, makers, seeds)
    try:
        outcomes = parallel.execute_cells(context, cells, workers or 1)
    finally:
        release_shared_stores()
    return SweepReport(outcomes)


def _predicate_judge(predicate: CorrectnessPredicate) -> Judge:
    """``predicate`` over the paper's ``(ans(E), F, I)`` as a judge."""

    def judge(result: ExecutionResult) -> Tuple[str, ...]:
        holds = predicate(
            result.answer_vector(),
            frozenset(result.faulty_ids),
            tuple(
                result.inputs.get(process_id, BOTTOM)
                for process_id in result.config.process_ids
            ),
        )
        return () if holds else ("predicate violated",)

    return judge

