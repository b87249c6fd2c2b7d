"""Execution driver.

:func:`run_protocol` wires processes, adversary, network, metrics and
trace together, runs rounds until every correct processor has decided
(or for a fixed number of rounds), and returns
an :class:`ExecutionResult` — the executable analogue of the paper's
execution tuple ``(k, F, I, M)`` together with everything the
experiments measure (decisions, decision rounds, bits, traces).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

import repro.obs.core as _obs
from repro.adversary.base import Adversary, PassiveAdversary
from repro.errors import ConfigurationError
from repro.runtime.metrics import MessageMetrics
from repro.runtime.network import SynchronousNetwork
from repro.runtime.node import Process
from repro.runtime.rng import derive_rng
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value

if TYPE_CHECKING:
    from repro.runtime.trace import ExecutionTrace

# Builds one correct processor: (process_id, config, input_value) -> Process.
ProcessFactory = Callable[[ProcessId, SystemConfig, Value], Process]

@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one complete execution."""

    config: SystemConfig
    inputs: Dict[ProcessId, Value]
    faulty_ids: frozenset
    rounds: Round
    decisions: Dict[ProcessId, Value]
    decision_rounds: Dict[ProcessId, Optional[Round]]
    metrics: MessageMetrics
    trace: Optional[ExecutionTrace]
    processes: Dict[ProcessId, Process]

    @property
    def correct_ids(self) -> Tuple[ProcessId, ...]:
        """Correct processor ids, ascending (faulty ids excluded).

        Read off ``decisions``, which has one entry per correct
        processor on every path a result travels: live, pool-portable
        (``processes`` stubbed) and unpickled without its processes
        (``processes`` empty).
        """
        return tuple(sorted(self.decisions))

    def decided_values(self) -> set:
        """The set of values decided by correct processors."""
        return {
            value for value in self.decisions.values() if value is not BOTTOM
        }

    def answer_vector(self) -> tuple:
        """The paper's ``ans(E)``: per-processor decision, BOTTOM if faulty.

        Undecided correct processors also contribute BOTTOM; a deciding
        execution has no such entries among correct processors.
        """
        return tuple(
            BOTTOM
            if process_id in self.faulty_ids
            else self.decisions.get(process_id, BOTTOM)
            for process_id in self.config.process_ids
        )

    def is_deciding(self) -> bool:
        """Whether every correct processor has decided."""
        return all(
            self.decisions.get(process_id, BOTTOM) is not BOTTOM
            for process_id in self.correct_ids
        )


def run_protocol(
    factory: ProcessFactory,
    config: SystemConfig,
    inputs: Mapping[ProcessId, Value],
    adversary: Optional[Adversary] = None,
    max_rounds: int = 1000,
    run_full_rounds: Optional[int] = None,
    sizer: Optional[Callable[[Any], int]] = None,
    is_null: Optional[Callable[[Any], bool]] = None,
    record_trace: bool = False,
    seed: int = 0,
    meter_adversary: bool = False,
) -> ExecutionResult:
    """Run one execution to completion.

    Parameters
    ----------
    factory:
        Builds each correct processor from its id, the config, and its
        input value.
    config:
        System parameters ``(n, t)``.
    inputs:
        Input value per processor id (faulty ids included — they are
        part of the paper's input vector ``I`` even though the
        adversary need not honour them).
    adversary:
        Fault behaviour; defaults to the fault-free
        :class:`PassiveAdversary`.
    max_rounds:
        Safety bound; exceeding it without stopping raises
        :class:`ConfigurationError` (protocols here have known round
        bounds, so hitting the cap indicates a bug, not slow progress).
    run_full_rounds:
        If given, run exactly this many rounds regardless of decisions
        (used when a later decision rule is applied to final states);
        otherwise stop once every correct processor has decided.
    sizer / is_null:
        Exact message measurement hooks (see the network).
    record_trace:
        Record every envelope and state snapshot (exponential for
        full-information protocols; test scale only).
    seed:
        Seeds the adversary's RNG substream.
    meter_adversary:
        Include faulty processors' traffic in the metrics — a
        diagnostics view; the paper's bounds meter correct traffic
        only (see :mod:`repro.runtime.metrics`).
    """
    adversary = adversary or PassiveAdversary()
    # Built on the adversary's first draw: the deterministic strategies
    # never pay for a generator.
    adversary.bind(config, functools.partial(derive_rng, seed, "adversary"))

    missing = set(config.process_ids) - set(inputs)
    if missing:
        raise ConfigurationError(f"inputs missing for processors {sorted(missing)}")

    processes: Dict[ProcessId, Process] = {
        process_id: factory(process_id, config, inputs[process_id])
        for process_id in config.process_ids
        if process_id not in adversary.faulty_ids
    }

    trace: Optional[ExecutionTrace] = None
    if record_trace:
        from repro.runtime.trace import ExecutionTrace

        trace = ExecutionTrace()
    network = SynchronousNetwork(
        config=config,
        processes=processes,
        adversary=adversary,
        inputs=inputs,
        sizer=sizer,
        is_null=is_null,
        trace=trace,
        meter_adversary=meter_adversary,
    )

    observer = _obs.ACTIVE
    if observer is not None:
        observer.begin_run(
            n=config.n,
            t=config.t,
            seed=seed,
            adversary=type(adversary).__name__,
            faulty=sorted(adversary.faulty_ids),
        )

    rounds_run = 0
    with _obs.span("engine.run"):
        while True:
            if run_full_rounds is not None:
                if rounds_run >= run_full_rounds:
                    break
            elif rounds_run > 0 and all(
                process.has_decided() for process in processes.values()
            ):
                break
            if rounds_run >= max_rounds:
                raise ConfigurationError(
                    f"execution exceeded max_rounds={max_rounds} "
                    "without stopping"
                )
            rounds_run = network.run_round()

    if observer is not None:
        metrics = network.metrics
        observer.end_run(
            rounds=rounds_run,
            decided=sum(
                1 for process in processes.values() if process.has_decided()
            ),
            messages=metrics.total_messages,
            non_null=metrics.total_non_null_messages,
            bits=metrics.total_bits,
        )

    return ExecutionResult(
        config=config,
        inputs=dict(inputs),
        faulty_ids=adversary.faulty_ids,
        rounds=rounds_run,
        decisions={
            process_id: process.decision
            for process_id, process in processes.items()
        },
        decision_rounds={
            process_id: process.decision_round
            for process_id, process in processes.items()
        },
        metrics=network.metrics,
        trace=trace,
        processes=processes,
    )
