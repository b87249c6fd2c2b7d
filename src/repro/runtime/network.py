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

Phase 3 is :meth:`SynchronousNetwork.dispatch`: it lands and meters
the round's traffic through :meth:`SynchronousNetwork.deliver_round`,
then runs every receiver's state change in processor-id order.  The
round is lockstep; communication-closedness is what makes any
admissible asynchronous schedule produce this same run, and the test
suite checks that with an asynchronous reference network
(docs/runtime.md).

Hot-path notes: sweeps run this loop millions of times, and every
protocol of the paper sends one message to all ``n``, so a
:class:`~repro.runtime.node.Broadcast` burst is (a) landed by cloning,
per receiver, one row that already holds the round's broadcasts,
(b) measured once — and each payload *object* at most once a round,
whatever map it arrives in — and (c) metered once, in the round row
and the sender row every message of the burst shares.  A burst's one
``send`` record and its envelopes are written only when an event sink
or a trace is attached to read them, and so is the round's one
``state`` record, which names the processors whose state changed.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple,
)

import repro.obs.core as _obs
from repro.adversary.base import Adversary, RoundContext
from repro.errors import ConfigurationError
from repro.arrays.store import InternedArray
from repro.arrays.value_array import fold_tree
from repro.obs.core import Observer
from repro.runtime.metrics import MessageMetrics
from repro.runtime.node import Broadcast, Process
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom

if TYPE_CHECKING:
    from repro.obs.events import EventLog
    from repro.runtime.trace import ExecutionTrace


# The size-memo counters: per-round identity memo, cross-round interned memo.
_PLAIN_MISS, _PLAIN_HIT = "net.size_cache.miss", "net.size_cache.hit"
_INTERNED_MISS = "net.interned_size_cache.miss"
_INTERNED_HIT = "net.interned_size_cache.hit"


#: What the default sizer charges a scalar leaf, and a container node
#: on top of its elements; the message budgets of the specs it meters
#: (:mod:`repro.analysis.complexity`) are stated in these.
DEFAULT_LEAF_BITS = 8
DEFAULT_NODE_BITS = 2


def _default_sizer(message: Any) -> int:
    """Fallback message measure: 8 bits per scalar leaf, 2 per node.

    Protocols that make bit-level claims supply an exact sizer built
    from :class:`repro.arrays.encoding.MessageSizer`; this fallback
    keeps metrics meaningful for quick experiments.  All container
    shapes are sized structurally — tuples, lists, sets and dicts each
    cost a 2-bit node header plus the sum of their elements (dicts:
    keys and values) — so a list-shaped message is never silently
    undercounted as a single scalar leaf.

    Byzantine payloads come through here too (a faulty sender's
    ``send`` entries), hence the fold: deep or shared nesting is just a
    long message, and a container that contains itself is one leaf
    where it recurs.
    """
    return fold_tree(
        message, _leaf_bits, _node_bits, containers=_SIZED_CONTAINERS
    )


def _leaf_bits(leaf: Any) -> int:
    return 0 if leaf is BOTTOM else DEFAULT_LEAF_BITS


def _node_bits(child_bits: List[int]) -> int:
    return DEFAULT_NODE_BITS + sum(child_bits)


_SIZED_CONTAINERS = (tuple, frozenset, list, set, dict)
#: Containers whose contents are fixed when they are made.
_FIXED_CONTAINERS = frozenset({tuple, frozenset, InternedArray})
#: Scalars that are fixed too (a float only when finite).
_FIXED_SCALARS = frozenset({int, str, bool, type(None), float})


def _fixed_default_size(message: Any) -> Tuple[int, bool]:
    """:func:`_default_sizer` of ``message``, and whether the message is
    an exact immutable scalar or built of exact tuples and frozensets
    only (an interned node counts as a tuple): then nothing in it can
    change while it lives, so neither can its size or summary."""
    kind = type(message)
    if kind in _FIXED_SCALARS:
        return _leaf_bits(message), kind is not float or math.isfinite(message)
    kinds: Set[type] = set()

    def opened(container: Any) -> None:
        kinds.add(type(container))
        return None

    bits = fold_tree(
        message, _leaf_bits, _node_bits,
        containers=_SIZED_CONTAINERS, closed=opened,
    )
    return bits, bool(kinds) and kinds <= _FIXED_CONTAINERS


def _json_safe(value: Any) -> Any:
    """:func:`repro.obs.events.json_safe`: only an events run needs it,
    so the first call loads it and rebinds this name to it."""
    global _json_safe
    from repro.obs.events import json_safe

    _json_safe = json_safe
    return json_safe(value)


def _summarise(payload: Any) -> str:
    """:func:`repro.runtime.render.summarise_payload`, loaded and bound
    here by the first faulty ``send`` tail (render imports us)."""
    global _summarise
    from repro.runtime.render import summarise_payload

    _summarise = summarise_payload
    return summarise_payload(payload)


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
        # Faulty senders speak in id order; their ids are fixed.
        self._faulty_order = tuple(sorted(adversary.faulty_ids))
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
        # A faulty payload's `send` entry tail text per object, whoever
        # sends it: ``id -> (payload, tail)``, for the execution when
        # the payload cannot change (see _faulty_tail), else for the
        # round.  Each entry holds its payload, so no id is reused
        # while it is cached.
        self._fixed_tails: Dict[int, Tuple[Any, str]] = {}
        self._round_tails: Dict[int, Tuple[Any, str]] = {}
        if trace is not None:
            # Loaded once per traced network, not per delivery.
            from repro.runtime.message import Envelope

            self._envelope = Envelope

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
        correct_outgoing: Dict[ProcessId, Mapping[ProcessId, Any]] = {}
        for process_id, process in self.processes.items():
            burst = process.outgoing(round_number)
            # A Broadcast refuses item edits, so it is kept as it is —
            # and stays recognisable to delivery; any other map is
            # copied, as the sender may go on writing it.
            correct_outgoing[process_id] = (
                burst if type(burst) is Broadcast else dict(burst)
            )

        # 2. The adversary, having seen that traffic, fixes faulty messages.
        context = RoundContext(
            config=self.config,
            round_number=round_number,
            correct_outgoing=correct_outgoing,
            processes=self.processes,
            inputs=self.inputs,
        )
        faulty_outgoing: Dict[ProcessId, Dict[ProcessId, Any]] = {}
        for sender in self._faulty_order:
            faulty_outgoing[sender] = dict(
                self.adversary.outgoing(round_number, sender, context)
            )

        # 3. Deliver, observe, state-change.
        self.dispatch(
            round_number, context, correct_outgoing, faulty_outgoing, observer
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

    def dispatch(
        self,
        round_number: Round,
        context: RoundContext,
        correct_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
        faulty_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
        observer: Optional[Observer],
    ) -> None:
        """Phase 3: deliver every row, then every state change.

        The round's traffic is fixed by now (correct sends collected,
        faulty sends chosen by the rushing adversary).  Rows are landed
        and metered by :meth:`deliver_round`, the adversary observes the
        round once, and each receiver's ``receive`` runs in
        processor-id order.  A subclass may reorder deliveries and state
        changes inside the round; it must leave every correct processor
        advanced through ``round_number``.
        """
        events = observer is not None and observer.events_on
        incoming_by_receiver = self.deliver_round(
            round_number, correct_outgoing, faulty_outgoing, observer
        )

        self.adversary.observe_round(round_number, context, faulty_outgoing)

        for receiver, process in self.processes.items():
            process.receive(round_number, incoming_by_receiver[receiver])
        if self.trace is not None or events:
            self.record_state_changes(
                round_number, list(self.processes), observer, events
            )

    # -- phase-3 primitives -------------------------------------------------
    #
    # Keeping the bookkeeping — metering, snapshots, state/decide
    # events — in these methods pins it to one implementation, so an
    # override of :meth:`dispatch` can vary only *ordering*, never
    # *accounting*.

    def record_state_changes(
        self,
        round_number: Round,
        receivers: List[ProcessId],
        observer: Optional[Observer],
        events: bool,
    ) -> None:
        """Post-``receive`` bookkeeping for ``receivers``, whose state
        changes ran in that order: their snapshots, one ``state`` record
        naming them, and a ``decide`` record for each that decided this
        round."""
        processes = self.processes
        if self.trace is not None:
            for receiver in receivers:
                self.trace.record_snapshot(
                    round_number, receiver, processes[receiver].snapshot()
                )
        if events:
            assert observer is not None
            observer.emit("state", processes=receivers)
            for receiver in receivers:
                process = processes[receiver]
                if process.decision_round == round_number:
                    observer.emit(
                        "decide", process=receiver,
                        value=_json_safe(process.decision),
                    )

    def _measured(
        self, payload: Any, observer: Optional[Observer] = None,
        copies: int = 1,
    ) -> Tuple[int, bool]:
        """``(bits, non_null)`` for ``payload``, memoized together.

        Interned payloads memoize on their stable ``key_token`` and
        survive round boundaries; everything else memoizes on object
        identity within the round.  The null verdict rides in the same
        entry because both are pure functions of the payload and both
        are needed per delivery.  ``copies`` is how many messages the
        one answer stands for: the cache counters move as if each had
        asked (a miss at most once, hits for the rest).
        """
        if type(payload) is InternedArray:
            cache, key = self._interned_size_cache, payload.key_token
            miss, hit = _INTERNED_MISS, _INTERNED_HIT
        else:
            cache, key = self._size_cache, id(payload)
            miss, hit = _PLAIN_MISS, _PLAIN_HIT
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = (
                self.sizer(payload), not self.is_null(payload)
            )
            copies -= 1
            if observer is not None:
                observer.count(miss)
        if copies and observer is not None:
            observer.count(hit, copies)
        return entry

    def deliver_round(
        self,
        round_number: Round,
        correct_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
        faulty_outgoing: Mapping[ProcessId, Mapping[ProcessId, Any]],
        observer: Optional[Observer],
    ) -> Dict[ProcessId, Dict[ProcessId, Any]]:
        """Fix and meter the round's traffic.

        Returns each correct receiver's incoming map, one entry per
        processor id, after metering every sender's burst in the
        canonical order (correct senders in process order, then faulty
        senders) and writing its envelopes and its one ``send`` record.
        This is what the protocol *sent*, which no admissible schedule
        may change; :meth:`dispatch` only chooses the order in which the
        returned rows are consumed.

        A :class:`~repro.runtime.node.Broadcast` to all ``n`` is handled
        once, not once per copy: its message already sits in the row
        every receiver's map is cloned from, and :meth:`_deliver_uniform`
        measures and meters it a single time.
        """
        self._size_cache.clear()
        self._round_tails.clear()
        sink = observer.events if observer is not None else None
        base = dict(self._bottom_row)
        uniform: Set[ProcessId] = set()
        for outgoing in (correct_outgoing, faulty_outgoing):
            for sender, burst in outgoing.items():
                if (
                    type(burst) is Broadcast
                    and len(burst.process_ids) == len(base)
                ):
                    base[sender] = burst.message
                    uniform.add(sender)
        rows = {receiver: dict(base) for receiver in self.processes}
        # Each burst's ``send`` record, written together after the loop.
        bursts: List[Tuple[ProcessId, bool, Any]] = []
        for faulty, outgoing in (
            (False, correct_outgoing), (True, faulty_outgoing)
        ):
            metered = not faulty or self.meter_adversary
            for sender, burst in outgoing.items():
                if sender not in uniform:
                    entries = self._deliver_each(
                        round_number, sender, burst, rows, metered,
                        observer, faulty, sink,
                    )
                elif base[sender] is not BOTTOM:
                    entries = self._deliver_uniform(
                        round_number, sender, base[sender], metered,
                        observer, faulty, sink,
                    )
                else:
                    continue
                # An all-BOTTOM burst records nothing.
                if entries is not None:
                    bursts.append((sender, faulty, entries))
        if bursts:
            assert observer is not None
            observer.emit_sends(bursts)
        return rows

    def _faulty_tail(self, payload: Any, sink: EventLog) -> str:
        """The text of a faulty sender's ``send`` entry after the
        receiver (:meth:`EventLog.tail`): sized by the structural
        fallback, since the protocol sizer may choke on Byzantine
        garbage, and summarized — its cost is informational, not a
        canonical-form bit claim.
        Once per payload object an execution when the object cannot
        change (an exact immutable scalar, or exact tuples and
        frozensets all the way down), else once per object a round: a
        sender may grow a list it sends again."""
        key = id(payload)
        entry = self._fixed_tails.get(key) or self._round_tails.get(key)
        if entry is None:
            bits, fixed = _fixed_default_size(payload)
            entry = (payload, sink.tail(bits, True, _summarise(payload)))
            (self._fixed_tails if fixed else self._round_tails)[key] = entry
        return entry[1]

    def _deliver_uniform(
        self,
        round_number: Round,
        sender: ProcessId,
        message: Any,
        metered: bool,
        observer: Optional[Observer],
        faulty: bool,
        sink: Optional[EventLog],
    ) -> Any:
        """One non-BOTTOM message to all ``n``, already landed: measure
        it once.  Returns the burst's ``send`` entries for ``sink``."""
        n = self.config.n
        bits, non_null = 0, False
        if metered:
            bits, non_null = self._measured(message, observer, n)
            self.metrics.record_burst(
                round_number, sender, n, n if non_null else 0, n * bits
            )
        trace = self.trace
        if trace is not None:
            for receiver in self.config.process_ids:
                if receiver in self.processes:
                    trace.record_envelope(
                        self._envelope(sender, receiver, round_number, message)
                    )
        if sink is None:
            return None
        tail = (
            self._faulty_tail(message, sink) if faulty
            else sink.tail(bits, non_null)
        )
        return sink.uniform_entries(self.config.process_ids, tail)

    def _deliver_each(
        self,
        round_number: Round,
        sender: ProcessId,
        per_receiver: Mapping[ProcessId, Any],
        rows: Dict[ProcessId, Dict[ProcessId, Any]],
        metered: bool,
        observer: Optional[Observer],
        faulty: bool,
        sink: Optional[EventLog],
    ) -> Any:
        """A per-receiver map: land, measure and record every copy.
        Returns the burst's ``send`` entries for ``sink``, if any."""
        trace = self.trace
        heads: List[Any] = []
        tails: List[Any] = []
        if not metered and sink is None and trace is None:
            # Nobody reads anything of this burst but the rows.
            for receiver, payload in per_receiver.items():
                incoming = rows.get(receiver)
                if incoming is not None:
                    incoming[sender] = payload
            return None
        # The burst's metered usage: every message of it lands in the
        # same round row and sender row, so it is summed here and
        # recorded once, after the loop.
        messages = non_null_messages = total_bits = 0
        for receiver, payload in per_receiver.items():
            incoming = rows.get(receiver)
            if incoming is not None:
                incoming[sender] = payload
            elif not faulty and receiver not in self._bottom_row:
                # A faulty destination "does not matter" (Theorem 9):
                # dropped, the sender's cost still metered below.  A
                # destination that does not exist is a protocol bug,
                # not traffic; only a Byzantine sender may address
                # anything.
                raise ConfigurationError(
                    f"correct processor {sender} sent to {receiver!r}, "
                    f"which is not a processor id in 1..{self.config.n}"
                )
            if payload is BOTTOM:
                continue
            if metered:
                bits, non_null = self._measured(payload, observer)
                messages += 1
                total_bits += bits
                if non_null:
                    non_null_messages += 1
            if sink is not None:
                heads.append(receiver)
                tails.append(
                    self._faulty_tail(payload, sink) if faulty
                    else sink.tail(bits, non_null)
                )
            if incoming is not None and trace is not None:
                trace.record_envelope(
                    self._envelope(sender, receiver, round_number, payload)
                )
        # An all-bottom burst creates no metric rows: rounds_used
        # counts only rounds with recorded traffic.
        if messages:
            self.metrics.record_burst(
                round_number, sender, messages, non_null_messages, total_bits
            )
        if sink is None or not heads:
            return None
        return sink.entries(heads, tails)
