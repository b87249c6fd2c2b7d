"""Pluggable round schedulers: lockstep reference and async backend.

The paper's model is lockstep synchronous — in every round each
correct processor sends, receives, and changes state, and the round
boundary is global.  But the canonical form's defining property,
*communication-closedness* (every message sent in round ``r`` is
consumed in round ``r`` and nowhere else), is exactly what makes that
round structure recoverable from an asynchronous execution: if a
correct processor simply waits until its round-``r`` closed message
set has been delivered before making its round-``r`` state change,
any admissible asynchronous schedule induces the same per-round
incoming maps — and therefore the same execution — as the lockstep
run.  This is the reduction of Damian/Drăgoi/Widder ("Reducing
asynchrony to synchronized rounds", PAPERS.md), made executable.

A :class:`Scheduler` owns phase 3 of
:meth:`repro.runtime.network.SynchronousNetwork.run_round` — message
delivery ordering, receiver state changes, and round advancement.
Phases 1–2 (collecting correct sends, letting the rushing adversary
fix faulty traffic) stay in the network: the adversary's view of a
full round of correct traffic is a *hook point* both backends share,
and it is what serialises rounds globally — a round's faulty messages
cannot exist until every correct processor has sent, so admissible
schedules permute delivery and state-change order *within* a round
while the send/fix boundary stays a barrier.

Two backends:

* :class:`LockstepScheduler` — the byte-identical reference: delivers
  every row, then runs every receiver's state change in processor-id
  order.  This is exactly the loop the network ran before schedulers
  existed.
* :class:`AsyncScheduler` — the event-driven backend.  Every
  ``(sender, receiver)`` channel delivery is an event carrying a
  bounded logical delay sampled from a dedicated RNG substream
  (``derive_rng(seed, "scheduler", salt, round)`` — per-round, so
  schedules are prefix-stable across different run lengths, which is
  what makes checkpoint resume schedule-faithful).  Events drain in
  logical-time order; a correct processor's round-``r`` state change
  fires the moment its round's closed message set is fully delivered,
  so receivers advance in *schedule* order, skewed against each
  other, not in processor-id order.  Metering and row construction
  are the network's ``deliver_round`` — the call the lockstep backend
  makes too — and happen before the schedule is sampled, so an
  execution's :class:`~repro.runtime.metrics.MessageMetrics`
  (and hence its :class:`~repro.runtime.engine.ExecutionResult`) is
  bit-for-bit the lockstep one whenever the protocol is
  communication-closed.

Equivalence is *tested*, not assumed:
``tests/runtime/test_scheduler_equivalence.py`` asserts
pickle-identical results across backends for every certified-canonical
catalog protocol and every committed fuzz case, and demonstrates
divergence on a deliberately non-closed fixture (the negative
control).  The backend is selected per execution through
``run_protocol(..., scheduler=...)`` or per grid through
``sweep(..., scheduler=...)`` (see docs/runtime.md).
"""

from __future__ import annotations

import abc
import heapq
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import repro.obs.core as _obs
from repro.adversary.base import RoundContext
from repro.core.rounds import RoundRecovery
from repro.errors import ConfigurationError
from repro.obs.events import TrafficBurst
from repro.runtime.rng import derive_rng
from repro.types import ProcessId, Round, is_bottom

if TYPE_CHECKING:
    from repro.runtime.network import SynchronousNetwork

#: Default logical-delay bound for the async backend: small enough to
#: keep event queues cheap, large enough that delivery and state-change
#: order is genuinely permuted (a bound of 0 degenerates to the
#: lockstep order).
DEFAULT_MAX_DELAY = 3

#: Outgoing maps keyed by sender: ``{sender: {receiver: payload}}``.
OutgoingMap = Dict[ProcessId, Dict[ProcessId, Any]]


class Scheduler(abc.ABC):
    """Delivery ordering and round advancement for one execution.

    A scheduler instance is bound to exactly one network (the engine
    builds a fresh one per execution); ``bind`` re-binding an instance
    to a second live network raises, because the async backend carries
    per-execution schedule state.
    """

    #: Stable backend name (``repro run-ba --scheduler`` choices,
    #: test parametrisation).
    name: str = "?"

    def __init__(self) -> None:
        self._network: Optional["SynchronousNetwork"] = None
        self._seed: int = 0

    def bind(self, network: "SynchronousNetwork", seed: int) -> None:
        """Attach the network this scheduler drives (engine calls this)."""
        if self._network is not None and self._network is not network:
            raise ConfigurationError(
                f"{type(self).__name__} is already bound to a network; "
                "build a fresh scheduler per execution"
            )
        self._network = network
        self._seed = int(seed)

    @property
    def network(self) -> "SynchronousNetwork":
        if self._network is None:
            raise ConfigurationError("scheduler used before bind()")
        return self._network

    @abc.abstractmethod
    def dispatch(
        self,
        round_number: Round,
        context: RoundContext,
        correct_outgoing: OutgoingMap,
        faulty_outgoing: OutgoingMap,
    ) -> None:
        """Run phase 3 of the round: deliver, observe, state-change.

        By the time this is called the round's complete traffic is
        fixed (correct sends collected, faulty sends chosen by the
        rushing adversary).  The scheduler decides delivery order and
        when each receiver's state change fires; it must call
        ``adversary.observe_round`` exactly once, after deliveries are
        fixed and before any correct state change, and must leave every
        correct processor advanced through ``round_number`` on return —
        round recovery may reorder, never drop.
        """

    def describe(self) -> str:
        """Human-readable backend description for reports and logs."""
        return self.name


class LockstepScheduler(Scheduler):
    """The paper's synchronous reference backend.

    Delivers every sender's row (correct senders first, in process
    order; faulty senders after, in sorted order), then runs every
    receiver's state change in processor-id order.  Byte-identical to
    the pre-scheduler network loop — the reference every other backend
    is measured against.
    """

    name = "lockstep"

    def dispatch(
        self,
        round_number: Round,
        context: RoundContext,
        correct_outgoing: OutgoingMap,
        faulty_outgoing: OutgoingMap,
    ) -> None:
        network = self.network
        observer = _obs.ACTIVE
        events = observer is not None and observer.events_on
        tracing = events and observer is not None and observer.trace_on

        incoming_by_receiver = network.deliver_round(
            round_number, correct_outgoing, faulty_outgoing, observer, tracing
        )

        network.adversary.observe_round(round_number, context, faulty_outgoing)

        if network.trace is None and not events:
            # Fast path: no snapshot or event bookkeeping at all.
            for receiver, process in network.processes.items():
                process.receive(round_number, incoming_by_receiver[receiver])
        else:
            for receiver, process in network.processes.items():
                process.receive(round_number, incoming_by_receiver[receiver])
                network.record_state_change(
                    round_number, receiver, process, observer, events
                )


class AsyncScheduler(Scheduler):
    """Event-driven backend: rounds recovered via closedness.

    Parameters
    ----------
    max_delay:
        Bound on the logical delay of any single delivery (the
        partial-synchrony bound).  ``0`` degenerates to the lockstep
        delivery and state-change order.
    salt:
        Extra key mixed into the schedule substream.  Varying the salt
        re-samples the schedule *without* touching the adversary or
        protocol substreams — the metamorphic axis the conformance
        suite quantifies over.
    """

    name = "async"

    def __init__(self, max_delay: int = DEFAULT_MAX_DELAY, salt: int = 0):
        super().__init__()
        if max_delay < 0:
            raise ConfigurationError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self.max_delay = int(max_delay)
        self.salt = int(salt)
        #: Per-round skew observed so far: how many state changes fired
        #: out of processor-id order (diagnostics; see docs/runtime.md).
        self.reordered_state_changes = 0
        #: Logical delays sampled so far (diagnostics).
        self.delays_sampled = 0

    def describe(self) -> str:
        return f"async(max_delay={self.max_delay}, salt={self.salt})"

    def round_schedule(
        self, round_number: Round
    ) -> List[Tuple[int, int, ProcessId, ProcessId]]:
        """The round's delivery events, ``(delay, seq, sender, receiver)``.

        Sampled from ``derive_rng(seed, "scheduler", salt, round)`` in
        canonical channel order (sender-major, ascending) so that the
        same execution seed always yields the same schedule — for any
        worker count, and for any total run length (the per-round
        substream keying makes schedules prefix-stable, which is what
        makes a mid-run checkpoint resume schedule-faithful).
        """
        network = self.network
        rng = derive_rng(self._seed, "scheduler", self.salt, round_number)
        schedule: List[Tuple[int, int, ProcessId, ProcessId]] = []
        seq = 0
        receivers = sorted(network.processes)
        for sender in network.config.process_ids:
            for receiver in receivers:
                delay = int(rng.integers(0, self.max_delay + 1))
                schedule.append((delay, seq, sender, receiver))
                seq += 1
        self.delays_sampled += seq
        return schedule

    def dispatch(
        self,
        round_number: Round,
        context: RoundContext,
        correct_outgoing: OutgoingMap,
        faulty_outgoing: OutgoingMap,
    ) -> None:
        network = self.network
        observer = _obs.ACTIVE
        events = observer is not None and observer.events_on
        tracing = events and observer is not None and observer.trace_on

        # Phase A — the reference backend's, call for call, so the
        # meters (and the ExecutionResult they land in) stay bit-for-bit
        # identical to it.  Deliver trace edges are withheld here; they
        # are emitted below, in schedule order.
        incoming_by_receiver = network.deliver_round(
            round_number, correct_outgoing, faulty_outgoing, observer, False
        )

        network.adversary.observe_round(round_number, context, faulty_outgoing)

        # Phase B — realise one admissible schedule.  Every channel
        # (including silent ones: an omitted message is a detectable
        # BOTTOM arrival in the synchronous reduction) becomes an event
        # with a bounded logical delay; events drain in logical-time
        # order, and a receiver's state change fires the moment its
        # round's closed message set is complete — round advancement is
        # *recovered* from delivery, not imposed by a global barrier.
        heap = self.round_schedule(round_number)
        heapq.heapify(heap)
        recovery = RoundRecovery(network.config.n, network.processes)
        faulty_ids = network.adversary.faulty_ids
        # Edges leave in schedule order, so consecutive ones rarely
        # share a sender: each sender's burst writer is taken on its
        # first edge and kept for the round.
        bursts: Dict[ProcessId, TrafficBurst] = {}
        expected_order = iter(sorted(network.processes))
        while heap:
            _delay, _seq, sender, receiver = heapq.heappop(heap)
            payload = incoming_by_receiver[receiver][sender]
            if tracing and not is_bottom(payload):
                assert observer is not None
                burst = bursts.get(sender)
                if burst is None:
                    burst = bursts[sender] = observer.burst(
                        sender, sender in faulty_ids
                    )
                network.emit_deliver_edge(burst, receiver, payload, observer)
            if recovery.deliver(receiver):
                # Round recovery: this receiver's closed message set is
                # fully delivered — its round-r state change fires now,
                # possibly before another receiver has all round-r
                # messages (that is the round skew).
                process = network.processes[receiver]
                process.receive(round_number, incoming_by_receiver[receiver])
                network.record_state_change(
                    round_number, receiver, process, observer, events
                )
                if receiver != next(expected_order):
                    self.reordered_state_changes += 1
        if not recovery.complete():
            raise ConfigurationError(
                "schedule drained with incomplete rounds for receivers "
                f"{recovery.incomplete_receivers()}"
            )


def resolve_scheduler(
    spec: Union[None, str, Scheduler] = None,
) -> Scheduler:
    """Build the scheduler an execution should run under.

    ``spec`` may be a ready :class:`Scheduler` (returned as-is), a
    backend name, or ``None`` for the ``lockstep`` default.  Accepted
    names:

    - ``lockstep`` — the reference;
    - ``async`` — the event-driven backend at its default delay bound;
    - ``async:<max_delay>`` or ``async:<max_delay>:<salt>`` — the
      async backend with an explicit partial-synchrony bound and
      schedule salt (e.g. ``async:5:17``).
    """
    if isinstance(spec, Scheduler):
        return spec
    if spec is None:
        return LockstepScheduler()
    name = str(spec).strip().lower()
    if name == LockstepScheduler.name:
        return LockstepScheduler()
    if name == AsyncScheduler.name:
        return AsyncScheduler()
    if name.startswith("async:"):
        fields = name.split(":")[1:]
        if len(fields) in (1, 2):
            try:
                max_delay = int(fields[0])
                salt = int(fields[1]) if len(fields) == 2 else 0
            except ValueError:
                pass
            else:
                return AsyncScheduler(max_delay=max_delay, salt=salt)
    raise ConfigurationError(
        f"unknown scheduler {spec!r}; expected 'lockstep', 'async', or "
        "'async:<max_delay>[:<salt>]'"
    )


#: The backend names the CLI offers (``--scheduler`` choices; the
#: parametrised ``async:<delay>[:<salt>]`` form is accepted anywhere a
#: name is, but is not enumerable).
SCHEDULER_CHOICES = (LockstepScheduler.name, AsyncScheduler.name)


__all__ = [
    "DEFAULT_MAX_DELAY",
    "SCHEDULER_CHOICES",
    "AsyncScheduler",
    "LockstepScheduler",
    "Scheduler",
    "resolve_scheduler",
]
