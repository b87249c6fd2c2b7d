"""The observer: one object tying events, spans and counters together.

Instrumented code across the runtime, the arrays kernel and the
executors reads one module global, :data:`ACTIVE`, and does nothing
when it is ``None`` — the **null observer** default.  That check is
the entire cost of instrumentation on the default path, which is what
keeps un-observed sweeps and campaigns byte-identical to the
pre-instrumentation code (pinned by ``tests/obs/``).

An :class:`Observer` is run-scoped state: a logical clock
(run id / round / step) stamped onto every event, an optional
:class:`~repro.obs.events.EventLog` sink, a
:class:`~repro.obs.registry.InstrumentRegistry` of counters and
gauges, and a :class:`~repro.obs.spans.SpanProfile` of wall-time
spans.  Activate one for a region with::

    with observing(Observer(events=EventLog(path))) as obs:
        run_protocol(...)

Pool workers must never record into a fork-inherited observer (their
events would be lost or interleaved), so the sweep executor clears
:data:`ACTIVE` first thing in each forked worker — pooled runs record
executor-level instrumentation only.
"""

from __future__ import annotations

import contextlib
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, Union,
)

from repro.obs.events import EventLog, json_safe
from repro.obs.registry import InstrumentRegistry
from repro.obs.spans import (
    NULL_SPAN,
    NullSpan,
    ProfileSnapshot,
    SpanHandle,
    SpanProfile,
)

# The activation entry points necessarily publish through a module
# global: hot paths (one check per delivered message / interned node)
# cannot afford a registry lookup, and the observer must be visible to
# code that never receives it as an argument (the arrays kernel, the
# expansion caches).  Observation never feeds back into protocol
# behaviour, so the shared state is invisible to every replay theorem.
# ``activate`` publishes the observer through the ``ACTIVE`` global;
# ``deactivate`` clears it, so forked pool workers and finished CLI
# runs can drop the inherited observer.


class Observer:
    """Collects events, counters and spans for one observed region.

    Parameters
    ----------
    events:
        Event sink; ``None`` records no events (counters and spans
        still work).
    counters:
        Whether :meth:`count` / :meth:`gauge` record into the
        registry.
    spans:
        Whether :meth:`span` times regions (``False`` returns the
        no-op span).
    trace:
        Inert: every event log is causal, since each ``send`` record
        lists the messages a sender's round landed
        (:mod:`repro.obs.trace`).  Deleted by the next `benchmark` PR,
        with the harness that still passes it.
    """

    def __init__(
        self,
        events: Optional[EventLog] = None,
        counters: bool = True,
        spans: bool = True,
        trace: bool = False,
    ) -> None:
        self.events = events
        self.events_on = events is not None
        self.counters_on = counters
        self.spans_on = spans
        self._rollup_mark: Dict[str, int] = {}
        self.registry = InstrumentRegistry()
        #: ``count(name, delta=1)``: the registry's own method, bound
        #: once — hot paths call it thousands of times a pass.
        self.count: Callable[..., None] = (
            self.registry.count if counters else _ignore
        )
        self.profile = SpanProfile()
        self._span_stack: List[str] = []
        self._run: Optional[str] = None
        self._run_seq = 0
        self._round = 0
        self._closed = False

    # -- event log ---------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one deterministic event, stamped with the clock."""
        if self.events is not None:
            self.events.emit(kind, self._run, self._round, fields)

    def emit_sends(self, bursts: List[Tuple[int, bool, Any]]) -> None:
        """Append a round's ``send`` records (:meth:`EventLog.sends`)."""
        if self.events is not None:
            self.events.sends(self._run, self._round, bursts)

    def emit_nondet(self, kind: str, **fields: Any) -> None:
        """Append one wall-clock-derived event, flagged as such."""
        self.emit(kind, nondeterministic=True, **fields)

    def emit_rollup(self, scope: str, index: int, cells: int) -> None:
        """Append one telemetry rollup: the counter delta since the
        previous rollup.

        Rollups let ``repro status`` reconstruct progress and cache
        hit rates from a half-finished log: each record carries only
        what changed since the last one, so summing deltas across an
        interrupted log reproduces the registry state at the moment of
        the kill.  Deterministic — counters hold logical quantities
        only, and the delta baseline is per-observer state.
        """
        if not self.events_on:
            return
        counters = self.registry.counters()
        delta = {
            name: value - self._rollup_mark.get(name, 0)
            for name, value in counters.items()
            if value != self._rollup_mark.get(name, 0)
        }
        self._rollup_mark = counters
        self.emit("rollup", scope=scope, index=index, cells=cells,
                  counters=delta)

    # -- logical clock -----------------------------------------------------

    def begin_run(
        self,
        n: int,
        t: int,
        seed: int,
        adversary: str,
        faulty: List[int],
    ) -> str:
        """Open a run scope; returns its id (``r1``, ``r2``, ...)."""
        self._run_seq += 1
        self._run = f"r{self._run_seq}"
        self._round = 0
        self.emit(
            "run_start", n=n, t=t, seed=seed, adversary=adversary,
            faulty=list(faulty),
        )
        return self._run

    def end_run(
        self,
        rounds: int,
        decided: int,
        messages: int,
        non_null: int,
        bits: int,
    ) -> None:
        """Close the current run scope and absorb its meters."""
        self.emit(
            "run_end", rounds=rounds, decided=decided, messages=messages,
            non_null=non_null, bits=bits,
        )
        if self.counters_on:
            self.registry.count("net.messages", messages)
            self.registry.count("net.non_null_messages", non_null)
            self.registry.count("net.bits", bits)
            self.registry.count("runs", 1)
        self._run = None
        self._round = 0

    def set_round(self, round_number: int) -> None:
        """Advance the logical clock to a protocol round."""
        self._round = round_number

    # -- registry ----------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        if self.counters_on:
            self.registry.set_gauge(name, value)

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> Union[SpanHandle, NullSpan]:
        """A context manager timing ``name`` under the open span path."""
        if not self.spans_on:
            return NULL_SPAN
        return SpanHandle(self.profile, self._span_stack, name)

    def profile_snapshot(self) -> ProfileSnapshot:
        return self.profile.snapshot()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Dump counters and the profile, then close the sink.

        The counters record is deterministic (it holds only logical
        quantities); the profile record embeds wall time and is
        flagged nondeterministic.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self.events_on:
            counters = self.registry.counters()
            if counters:
                self.emit("counters", counters=counters)
            profile = self.profile.as_dict()
            gauges = self.registry.gauges()
            if profile or gauges:
                self.emit_nondet(
                    "profile",
                    spans=profile,
                    gauges={name: round(value, 6)
                            for name, value in gauges.items()},
                )
        if self.events is not None:
            self.events.close()


def _ignore(name: str, delta: int = 1) -> None:
    """``count`` with counters off."""


#: The process-wide active observer; ``None`` is the null observer.
#: Hot paths read this attribute directly and skip all work when it is
#: ``None`` — never bind it at import time.
ACTIVE: Optional[Observer] = None


def activate(observer: Observer) -> None:
    """Make ``observer`` the process-wide active observer."""
    global ACTIVE
    ACTIVE = observer


def deactivate() -> None:
    """Return to the null observer."""
    global ACTIVE
    ACTIVE = None


@contextlib.contextmanager
def observing(observer: Observer, close: bool = True) -> Iterator[Observer]:
    """Activate ``observer`` for a region, restoring the previous one.

    ``close`` also finalizes the observer (counter/profile dump, sink
    close) on exit — the common CLI shape.  Pass ``False`` to keep it
    open for inspection or reuse.
    """
    previous = ACTIVE
    activate(observer)
    try:
        yield observer
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
        if close:
            observer.close()


def span(name: str) -> Union[SpanHandle, NullSpan]:
    """A span on the active observer, or the no-op span when null."""
    observer = ACTIVE
    if observer is None:
        return NULL_SPAN
    return observer.span(name)


__all__ = [
    "ACTIVE",
    "Observer",
    "activate",
    "deactivate",
    "json_safe",
    "observing",
    "span",
]
