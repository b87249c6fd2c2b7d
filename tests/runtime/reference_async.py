"""Test-only oracle: the lockstep round under an asynchronous schedule.

The paper's model is lockstep synchronous, and the engine runs it that
way.  Communication-closedness — every message sent in round ``r`` is
consumed in round ``r`` and nowhere else — is what makes that round
structure recoverable from an asynchronous execution: if a correct
processor waits until its round-``r`` closed message set has been
delivered before its round-``r`` state change, any admissible schedule
induces the same per-round incoming maps, and so the same execution, as
the lockstep run.  That is the reduction of Damian/Drăgoi/Widder
("Reducing asynchrony to synchronized rounds", PAPERS.md), and this
module makes it a metamorphic oracle for closedness.

:class:`AsyncNetwork` overrides the network's phase 3,
:meth:`~repro.runtime.network.SynchronousNetwork.dispatch`.  Rows are
landed, metered and recorded exactly as in lockstep (``deliver_round``
writes each sender's one ``send`` record), so neither the meters nor
the traffic records can move.  Then every ``(sender, receiver)`` channel — a
silent one too, since an omission is a detectable ``BOTTOM`` arrival —
becomes an event with a bounded logical delay.  Events drain in
logical-time order, and a receiver's state change fires the moment its
round's ``n`` deliveries are in: receivers advance in schedule order,
skewed against each other, not in processor-id order.

:func:`async_schedule` substitutes :class:`AsyncNetwork` for the network
:func:`repro.runtime.engine.run_protocol` builds; a forked pool worker
inherits the substitution.  Nothing under ``src/`` may import this.
"""

import contextlib
import heapq
from typing import Any, ContextManager, Iterator, List, Tuple

import repro.runtime.engine as engine
from repro.runtime.network import SynchronousNetwork
from repro.runtime.rng import derive_rng

#: The delay bound of a bare ``"async"`` spec: large enough that
#: delivery and state-change order is genuinely permuted (a bound of 0
#: degenerates to the lockstep order).
DEFAULT_MAX_DELAY = 3

#: One delivery event: ``(delay, seq, sender, receiver)``.
Event = Tuple[int, int, int, int]


class AsyncNetwork(SynchronousNetwork):
    """The network with phase 3 drained from a seeded delivery heap.

    ``max_delay`` bounds the logical delay of any one delivery (the
    partial-synchrony bound); ``salt`` keys the schedule.  A schedule is
    drawn from ``derive_rng(salt, "scheduler", round)``: deterministic,
    and prefix-stable across run lengths.
    """

    def __init__(self, *args: Any, max_delay: int, salt: int, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.max_delay = max_delay
        self.salt = salt
        #: State changes that fired out of processor-id order so far.
        self.reordered_state_changes = 0
        #: Logical delays sampled so far.
        self.delays_sampled = 0

    def round_schedule(self, round_number: int) -> List[Event]:
        """The round's delivery events, in canonical channel order."""
        receivers = sorted(self.processes)
        channels = [
            (sender, receiver)
            for sender in self.config.process_ids
            for receiver in receivers
        ]
        rng = derive_rng(self.salt, "scheduler", round_number)
        delays = rng.integers(0, self.max_delay + 1, size=len(channels))
        self.delays_sampled += len(channels)
        return [
            (int(delay), seq, sender, receiver)
            for seq, (delay, (sender, receiver)) in enumerate(
                zip(delays, channels)
            )
        ]

    def dispatch(
        self, round_number, context, correct_outgoing, faulty_outgoing, observer
    ) -> None:
        events = observer is not None and observer.events_on
        incoming = self.deliver_round(
            round_number, correct_outgoing, faulty_outgoing, observer
        )
        self.adversary.observe_round(round_number, context, faulty_outgoing)

        heap = self.round_schedule(round_number)
        heapq.heapify(heap)
        # Round recovery: a receiver's round is complete once one
        # delivery per channel has reached it — no barrier, no clock.
        remaining = dict.fromkeys(self.processes, self.config.n)
        expected_order = iter(sorted(self.processes))
        while heap:
            _delay, _seq, _sender, receiver = heapq.heappop(heap)
            remaining[receiver] -= 1
            if remaining[receiver] == 0:
                process = self.processes[receiver]
                process.receive(round_number, incoming[receiver])
                self.record_state_change(
                    round_number, receiver, process, observer, events
                )
                if receiver != next(expected_order):
                    self.reordered_state_changes += 1
        assert not any(remaining.values()), remaining


@contextlib.contextmanager
def async_schedule(
    max_delay: int = DEFAULT_MAX_DELAY, salt: int = 0
) -> Iterator[List[AsyncNetwork]]:
    """Run every execution started inside under :class:`AsyncNetwork`.

    Yields the list of networks built in this process, for their
    diagnostics and schedules.
    """
    built: List[AsyncNetwork] = []

    def build(*args: Any, **kwargs: Any) -> AsyncNetwork:
        network = AsyncNetwork(*args, max_delay=max_delay, salt=salt, **kwargs)
        built.append(network)
        return network

    original = engine.SynchronousNetwork
    engine.SynchronousNetwork = build
    try:
        yield built
    finally:
        engine.SynchronousNetwork = original


def schedule_for(spec: str) -> ContextManager[Any]:
    """The schedule a test id names.

    ``"lockstep"`` is the engine as it is; ``"async"``,
    ``"async:<max_delay>"`` and ``"async:<max_delay>:<salt>"`` are
    :func:`async_schedule` with those arguments.
    """
    if spec == "lockstep":
        return contextlib.nullcontext()
    name, *fields = spec.split(":")
    assert name == "async" and len(fields) <= 2, spec
    return async_schedule(*(int(field) for field in fields))
