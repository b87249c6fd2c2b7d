"""The synchronous fully connected reliable network (Section 2).

One :meth:`SynchronousNetwork.run_round` call performs the paper's
round structure exactly:

1. **send** — every correct processor's :meth:`outgoing` is collected;
2. the adversary, seeing all of that correct traffic (rushing), fixes
   the faulty processors' messages;
3. **receive / state change** — every correct processor's
   :meth:`receive` is invoked with one entry per processor id.

Reliability and synchrony mean a correct processor's message is always
delivered within the round; an omitted or malformed faulty message is
delivered as :data:`BOTTOM`, which the recipient can detect (and the
paper's protocols do: "a single message that contains more than one
value is obviously erroneous and is discarded immediately").

Delivery ordering and the receive/state-change phase are owned by a
pluggable :class:`~repro.runtime.scheduler.Scheduler` (phase 3 above);
the network keeps the send/adversary phases, which every backend
shares — the rushing adversary's full-round view is what serialises
rounds globally.  The default backend is the lockstep reference;
see :mod:`repro.runtime.scheduler` for the asynchronous one.

Hot-path notes: sweeps run this loop millions of times, so the round
loop (a) clones a preallocated all-:data:`BOTTOM` delivery row per
receiver instead of growing dicts with ``setdefault``, (b) memoizes
the sizer per payload *object* within a round — broadcasts present the
same object up to ``n`` times — (c) skips all trace bookkeeping
when no trace is attached, and (d) sums the metered usage of one
sender's burst and records it once, in the round row and the sender
row every message of the burst shares.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

import repro.obs.core as _obs
from repro.adversary.base import Adversary, RoundContext
from repro.arrays.store import InternedArray
from repro.obs.core import Observer
from repro.obs.events import TrafficBurst, json_safe
from repro.runtime.message import Envelope
from repro.runtime.metrics import MessageMetrics
from repro.runtime.node import Process
from repro.runtime.scheduler import LockstepScheduler, Scheduler
from repro.runtime.trace import ExecutionTrace
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom


# Closes a container on the sizer's work stack.
_CLOSE = object()


def _default_sizer(message: Any) -> int:
    """Fallback message measure: 8 bits per scalar leaf, 2 per node.

    Protocols that make bit-level claims supply an exact sizer built
    from :class:`repro.arrays.encoding.MessageSizer`; this fallback
    keeps metrics meaningful for quick experiments.  All container
    shapes are sized structurally — tuples, lists, sets and dicts each
    cost a 2-bit node header plus the sum of their elements (dicts:
    keys and values) — so a list-shaped message is never silently
    undercounted as a single scalar leaf.

    Byzantine payloads come through here too (trace edges), so the
    walk keeps its own stack instead of recursing — nesting thousands
    deep is just a long message.  Each distinct container object is
    walked once per call and its total reused wherever it recurs, so
    a payload sharing one child at every level (``x = (x, x)`` sixty
    times over) costs sixty walks, not ``2 ** 60``, while the result
    is still the sum over the tree it stands for.  A container that
    contains itself is charged as one leaf where it recurs.
    """
    bits = 0
    stack: List[Any] = [message]
    open_ids: Set[int] = set()  # containers on the current path
    sized: Dict[int, int] = {}  # id of a walked container -> its bits
    while stack:
        item = stack.pop()
        if item is BOTTOM:
            continue
        if item is _CLOSE:
            ident, bits_before = stack.pop(), stack.pop()
            open_ids.discard(ident)
            sized[ident] = bits - bits_before
        elif isinstance(item, (tuple, frozenset, list, set, dict)):
            ident = id(item)
            known = sized.get(ident)
            if known is not None:
                bits += known
            elif ident in open_ids:
                bits += 8
            else:
                open_ids.add(ident)
                stack.extend((bits, ident, _CLOSE))
                bits += 2
                if isinstance(item, dict):
                    stack.extend(item.keys())
                    stack.extend(item.values())
                else:
                    stack.extend(item)
        else:
            bits += 8
    return bits


class SynchronousNetwork:
    """Drives rounds over a set of correct processes plus an adversary."""

    def __init__(
        self,
        config: SystemConfig,
        processes: Mapping[ProcessId, Process],
        adversary: Adversary,
        inputs: Mapping[ProcessId, Value],
        sizer: Optional[Callable[[Any], int]] = None,
        is_null: Optional[Callable[[Any], bool]] = None,
        metrics: Optional[MessageMetrics] = None,
        trace: Optional[ExecutionTrace] = None,
        meter_adversary: bool = False,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
    ):
        overlap = set(processes) & set(adversary.faulty_ids)
        if overlap:
            raise ValueError(
                f"processors {sorted(overlap)} are both correct and faulty"
            )
        expected = set(config.process_ids)
        provided = set(processes) | set(adversary.faulty_ids)
        if provided != expected:
            raise ValueError(
                f"processes+faulty must cover 1..{config.n}; "
                f"missing {sorted(expected - provided)}"
            )
        self.config = config
        self.processes = dict(processes)
        self.adversary = adversary
        self.inputs = dict(inputs)
        self.sizer = sizer or _default_sizer
        self.is_null = is_null or is_bottom
        self.metrics = metrics if metrics is not None else MessageMetrics()
        self.trace = trace
        self.meter_adversary = meter_adversary
        self.round_number: Round = 0
        # Preallocated delivery row: every receiver's incoming map
        # starts as a clone of this (one BOTTOM slot per processor id),
        # replacing the per-round setdefault pass over n ids.
        self._bottom_row: Dict[ProcessId, Any] = {
            process_id: BOTTOM for process_id in config.process_ids
        }
        # Per-round (size, non-null) memo keyed on payload identity;
        # broadcast sends one object to n receivers, so n - 1 sizer
        # and null-check walks per sender collapse to dict hits.
        # Cleared every round, and the outgoing maps keep payloads
        # alive for the round, so an id can never be reused while
        # cached.
        self._size_cache: Dict[int, Tuple[int, bool]] = {}
        # Cross-round memo for hash-consed payloads: a canonical node's
        # key_token is unique for the store's lifetime (the store holds
        # the node alive), so this cache is never cleared — a value
        # array re-broadcast in a later round is measured by one dict
        # hit.  Both entries are stable: the sizer and the null
        # predicate are pure functions of the payload value.
        self._interned_size_cache: Dict[Any, Tuple[int, bool]] = {}
        # The payload summariser of `state`/`corrupt` event records,
        # bound once per network.  Imported here rather than at module
        # level because render imports the engine, which imports us.
        from repro.runtime.render import summarise_payload

        self._summarise = summarise_payload
        self.scheduler = (
            scheduler if scheduler is not None else LockstepScheduler()
        )
        self.scheduler.bind(self, seed)

    def run_round(self) -> Round:
        """Execute one full round; returns its (1-based) number."""
        # Read the active observer once per round: the per-message work
        # below only pays for instrumentation it can actually reach.
        observer = _obs.ACTIVE
        events = observer is not None and observer.events_on
        self.round_number += 1
        round_number = self.round_number
        if observer is not None:
            observer.set_round(round_number)
            if events:
                observer.emit("round_start")

        # 1. Correct processors send.
        correct_outgoing: Dict[ProcessId, Dict[ProcessId, Any]] = {}
        for process_id, process in self.processes.items():
            correct_outgoing[process_id] = dict(process.outgoing(round_number))

        # 2. The adversary, having seen that traffic, fixes faulty messages.
        context = RoundContext(
            config=self.config,
            round_number=round_number,
            correct_outgoing=correct_outgoing,
            processes=self.processes,
            inputs=self.inputs,
        )
        faulty_outgoing: Dict[ProcessId, Dict[ProcessId, Any]] = {}
        for sender in sorted(self.adversary.faulty_ids):
            faulty_outgoing[sender] = dict(
                self.adversary.outgoing(round_number, sender, context)
            )

        # 3. Deliver, observe, state-change — the scheduler's phase:
        # delivery ordering and round advancement are backend policy.
        self.scheduler.dispatch(
            round_number, context, correct_outgoing, faulty_outgoing
        )
        if events:
            assert observer is not None
            usage = self.metrics.round_usage(round_number)
            observer.emit(
                "round_end",
                messages=usage.messages,
                non_null=usage.non_null_messages,
                bits=usage.bits,
            )
        return round_number

    # -- scheduler-facing primitives --------------------------------------
    #
    # The pieces a Scheduler composes phase 3 from.  Keeping them on
    # the network (rather than in each backend) pins the bookkeeping —
    # metering, snapshots, state/decide events — to one implementation,
    # so backends can only vary *ordering*, never *accounting*.

    def fresh_delivery_rows(self) -> Dict[ProcessId, Dict[ProcessId, Any]]:
        """A new all-:data:`BOTTOM` incoming map per correct receiver.

        Also resets the per-round payload-identity size memo; call
        exactly once per round, before any delivery.
        """
        self._size_cache.clear()
        return {
            receiver: dict(self._bottom_row) for receiver in self.processes
        }

    def record_state_change(
        self,
        round_number: Round,
        receiver: ProcessId,
        process: Process,
        observer: Optional[Observer],
        events: bool,
    ) -> None:
        """Post-``receive`` bookkeeping: snapshot, state/decide events."""
        if self.trace is not None:
            self.trace.record_snapshot(
                round_number, receiver, process.snapshot()
            )
        if events:
            assert observer is not None
            # Shape summary, never repr: full-information snapshots are
            # exponential and repr-ing them would dominate an observed
            # run.
            observer.emit(
                "state", process=receiver,
                summary=self._summarise(process.snapshot(), limit=60),
            )
            if process.decision_round == round_number:
                observer.emit(
                    "decide", process=receiver,
                    value=json_safe(process.decision),
                )

    def emit_deliver_edge(
        self,
        burst: TrafficBurst,
        receiver: ProcessId,
        payload: Any,
        observer: Optional[Observer],
    ) -> None:
        """Emit the causal ``deliver`` edge of one landed payload.

        The one place an edge is sized, whichever backend orders the
        edges (lockstep emits them from :meth:`_deliver`; async meters
        in canonical order first and calls this in schedule order
        afterwards).  Faulty payloads are sized by the structural
        fallback — the protocol sizer may choke on Byzantine garbage,
        and a corrupt payload's "cost" is informational, not a
        canonical-form bit claim.
        """
        if burst.faulty:
            bits = _default_sizer(payload)
            non_null = not is_bottom(payload)
        else:
            bits, non_null = self._measured(payload, observer)
        burst.deliver(receiver, bits, non_null)

    def _measured(
        self, payload: Any, observer: Optional[Observer] = None
    ) -> Tuple[int, bool]:
        """``(bits, non_null)`` for ``payload``, memoized together.

        Interned payloads memoize on their stable ``key_token`` and
        survive round boundaries; everything else memoizes on object
        identity within the round.  The null verdict rides in the same
        entry because both are pure functions of the payload and both
        are needed per delivery.
        """
        if type(payload) is InternedArray:
            token = payload.key_token
            entry = self._interned_size_cache.get(token)
            if entry is None:
                entry = (self.sizer(payload), not self.is_null(payload))
                self._interned_size_cache[token] = entry
                if observer is not None:
                    observer.count("net.interned_size_cache.miss")
            elif observer is not None:
                observer.count("net.interned_size_cache.hit")
            return entry
        key = id(payload)
        entry = self._size_cache.get(key)
        if entry is None:
            entry = (self.sizer(payload), not self.is_null(payload))
            self._size_cache[key] = entry
            if observer is not None:
                observer.count("net.size_cache.miss")
        elif observer is not None:
            observer.count("net.size_cache.hit")
        return entry

    def _deliver(
        self,
        round_number: Round,
        sender: ProcessId,
        per_receiver: Dict[ProcessId, Any],
        incoming_by_receiver: Dict[ProcessId, Dict[ProcessId, Any]],
        metered: bool,
        observer: Optional[Observer] = None,
        faulty: bool = False,
        tracing: bool = False,
    ) -> None:
        trace = self.trace
        # One writer per sender: the clock, the sender and the faulty
        # flag of its event records are bound here, not per message.
        burst = (
            observer.burst(sender, faulty)
            if observer is not None and observer.events_on
            else None
        )
        # The burst's metered usage: every message of it lands in the
        # same round row and sender row, so it is summed here and
        # recorded once, after the loop.
        messages = non_null_messages = total_bits = 0
        for receiver, payload in per_receiver.items():
            incoming = incoming_by_receiver.get(receiver)
            if incoming is not None:
                incoming[sender] = payload
            # Destination-is-faulty deliveries (incoming is None) "do
            # not matter" (Theorem 9) — dropped, but a correct sender's
            # cost is still metered below.
            if is_bottom(payload):
                continue
            if metered:
                bits, non_null = self._measured(payload, observer)
                messages += 1
                total_bits += bits
                if non_null:
                    non_null_messages += 1
            if burst is not None:
                if faulty:
                    # Adversary-fixed traffic: recorded as a corruption,
                    # summarized rather than sized (a Byzantine
                    # payload's size says nothing about the protocol).
                    burst.corrupt(receiver, self._summarise(payload))
                elif metered:
                    burst.send(receiver, bits, non_null)
                if tracing and incoming is not None:
                    # Causal trace edge: a non-bottom payload actually
                    # landing in a correct receiver's incoming row.
                    self.emit_deliver_edge(burst, receiver, payload, observer)
            if incoming is not None and trace is not None:
                trace.record_envelope(
                    Envelope(sender, receiver, round_number, payload)
                )
        # An all-bottom burst records nothing and so creates no metric
        # rows: rounds_used counts only rounds with recorded traffic.
        if messages:
            self.metrics.record_burst(
                round_number, sender, messages, non_null_messages, total_bits
            )
