"""Srikanth–Toueg-style agreement: witnessed broadcasts, no signatures.

Section 5.6 compares the paper's protocol against "the protocol of
Srikanth and Toueg [18] (which uses the smallest number of rounds of
any previously known [communication-efficient] protocol and which only
requires that ``n >= 3t + 1``)": ``2t + 1`` rounds and
``O(t * n^2 * log n * log |V|)`` message bits.  Reference [18]'s text
is not available to this reproduction; this module implements its two
published ingredients from their standard descriptions:

**The broadcast primitive** (:class:`WitnessedBroadcast`) simulates
authenticated broadcast without cryptography.  An instance is keyed
``(broadcaster, payload, phase)``; phase ``k`` spans rounds ``2k - 1``
and ``2k``:

* the broadcaster sends an *init* in round ``2k - 1``;
* a processor that received exactly one init from that broadcaster for
  that phase sends an *echo* in round ``2k`` (two different inits are
  proof of a fault and kill the echo);
* a processor that has accumulated ``t + 1`` distinct echoes echoes
  too (it might never have seen the init);
* an instance is *accepted* once ``2t + 1`` distinct echoes have
  accumulated.

For ``n >= 3t + 1`` this gives the three authenticated-broadcast
properties — correctness (a correct broadcaster's message is accepted
by everyone within its phase), unforgeability (nothing is ever
accepted on behalf of a correct processor that did not broadcast), and
relay (an acceptance anywhere is an acceptance everywhere one round
later) — each covered directly by tests.

**The agreement protocol** on top is the signature-free Dolev–Strong
simulation: every processor broadcasts its input as source in phase 1;
a processor *extracts* value ``v`` for source ``s`` at the end of
phase ``j`` once it has accepted supporting broadcasts from ``j``
distinct processors including ``s``, and then confirms ``(s, v)`` with
its own broadcast in phase ``j + 1``.  After ``t + 1`` phases all
correct processors have extracted identical value sets per source
(the classic chain argument, with unforgeability standing in for
signatures); each source resolves to its unique extracted value or a
default, and the decision is the majority over the resolved vector.

Rounds: ``2(t + 1)`` — one more than the ``2t + 1`` the paper quotes
for [18] (their presentation merges a half-phase; we keep the clean
two-rounds-per-phase structure and report the measured count in
EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set, Tuple

from repro.agreement.dolev_strong import resolve_extracted
from repro.arrays.value_array import is_index_scalar
from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value

# Wire items.  A round message is a frozenset of these.
# ("init", broadcaster, payload, phase) / ("echo", broadcaster, payload, phase)
Item = Tuple[str, ProcessId, Any, int]

#: Protoflow taint: every received item passes the shape/legality
#: filter before entering echo bookkeeping (docs/statics.md).
TAINT_SANITIZERS = {
    "_well_formed": (
        "accepts only 4-tuples with a known kind, an in-range "
        "broadcaster id, a positive phase and a hashable payload; "
        "everything downstream counts distinct echoers against t+1 / "
        "2t+1 quorums"
    ),
}

# Primitive instance key.
InstanceKey = Tuple[ProcessId, Any, int]


def st_agreement_rounds(t: int) -> int:
    """Total rounds: ``t + 1`` phases of 2 rounds each."""
    return 2 * (t + 1)


class WitnessedBroadcast:
    """One processor's state for all broadcast-primitive instances."""

    def __init__(self, process_id: ProcessId, config: SystemConfig):
        self.process_id = process_id
        self.config = config
        # Instances this processor will init, keyed by phase.
        self._pending_inits: Dict[int, List[Tuple[Any,]]] = {}
        # (broadcaster, payload, phase) -> set of echoers seen.
        self._echoes: Dict[InstanceKey, Set[ProcessId]] = {}
        # Instances this processor has already echoed.
        self._echoed: Set[InstanceKey] = set()
        # Echo items to send next round.
        self._outgoing_echoes: Set[Item] = set()
        # Accepted instances, with the round of acceptance.
        self.accepted: Dict[InstanceKey, Round] = {}

    # -- sending ------------------------------------------------------------

    def schedule_broadcast(self, payload: Any, phase: int) -> None:
        """Arrange to init ``payload`` in ``phase`` (as broadcaster)."""
        self._pending_inits.setdefault(phase, []).append((payload,))

    def outgoing_items(self, round_number: Round) -> FrozenSet[Item]:
        items: Set[Item] = set(self._outgoing_echoes)
        self._outgoing_echoes = set()
        if round_number % 2 == 1:  # round 2k - 1 of phase k
            phase = (round_number + 1) // 2
            for (payload,) in self._pending_inits.pop(phase, []):
                items.add(("init", self.process_id, payload, phase))
                # The broadcaster echoes its own init immediately (it
                # trivially "received" it), keeping quorum arithmetic
                # uniform.
                key = (self.process_id, payload, phase)
                if key not in self._echoed:
                    self._echoed.add(key)
                    items.add(("echo", self.process_id, payload, phase))
        return frozenset(items)

    # -- receiving -------------------------------------------------------------

    def absorb(
        self, round_number: Round, items_by_sender: Dict[ProcessId, Any]
    ) -> List[InstanceKey]:
        """Process one round's items; returns newly accepted instances."""
        inits_seen: Dict[Tuple[ProcessId, int], Set[Any]] = {}
        for sender in self.config.process_ids:
            items = items_by_sender.get(sender, BOTTOM)
            if not isinstance(items, frozenset):
                continue
            for item in items:
                if not self._well_formed(item):
                    continue
                kind, broadcaster, payload, phase = item
                if kind == "init":
                    # An init is only valid from its broadcaster, in
                    # the first round of its phase.
                    if sender == broadcaster and round_number == 2 * phase - 1:
                        inits_seen.setdefault((broadcaster, phase), set()).add(
                            payload
                        )
                elif kind == "echo":
                    self._echoes.setdefault(
                        (broadcaster, payload, phase), set()
                    ).add(sender)

        # Echo rule 1: exactly one init from a broadcaster for a phase.
        for (broadcaster, phase), payloads in inits_seen.items():
            if len(payloads) != 1:
                continue  # conflicting inits: proof of fault, no echo
            (payload,) = payloads
            self._queue_echo((broadcaster, payload, phase))

        # Echo rule 2: t + 1 echoes persuade a processor to echo too.
        for key, echoers in self._echoes.items():
            if len(echoers) >= self.config.t + 1:
                self._queue_echo(key)

        # Acceptance at 2t + 1 echoes.
        newly_accepted: List[InstanceKey] = []
        for key, echoers in self._echoes.items():
            if key not in self.accepted and len(echoers) >= 2 * self.config.t + 1:
                self.accepted[key] = round_number
                newly_accepted.append(key)
        return newly_accepted

    def _queue_echo(self, key: InstanceKey) -> None:
        if key in self._echoed:
            return
        self._echoed.add(key)
        broadcaster, payload, phase = key
        self._outgoing_echoes.add(("echo", broadcaster, payload, phase))
        # Our own echo counts toward our own tally immediately.
        self._echoes.setdefault(key, set()).add(self.process_id)

    def _well_formed(self, item: Any) -> bool:
        if not (isinstance(item, tuple) and len(item) == 4):
            return False
        kind, broadcaster, payload, phase = item
        if kind not in ("init", "echo"):
            return False
        if not is_index_scalar(broadcaster, self.config.n):
            return False
        if not (isinstance(phase, int) and phase >= 1):
            return False
        try:
            hash(payload)
        except TypeError:
            return False
        return True


class STAgreementProcess(Process):
    """Polynomial agreement via witnessed broadcasts (the comparator)."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        default: Value = 0,
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"ST agreement needs n >= 3t+1; got n={config.n}, t={config.t}"
            )
        self.default = default
        self.primitive = WitnessedBroadcast(process_id, config)
        # Source broadcasts carry ("val", source, value) payloads.
        self.primitive.schedule_broadcast(("val", process_id, input_value), 1)
        # (source, value) -> set of broadcasters accepted in support.
        self._support: Dict[Tuple[ProcessId, Value], Set[ProcessId]] = {}
        # (source, value) pairs extracted so far.
        self._extracted: Set[Tuple[ProcessId, Value]] = set()

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        items = self.primitive.outgoing_items(round_number)
        # Nothing to init or echo: send nothing (receivers see BOTTOM).
        return broadcast(items, self.config) if items else {}

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        for key in self.primitive.absorb(round_number, incoming):
            broadcaster, payload, _ = key
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == "val"
            ):
                _, source, value = payload
                if is_index_scalar(source, self.config.n):
                    self._support.setdefault((source, value), set()).add(
                        broadcaster
                    )

        phase, step = (round_number - 1) // 2 + 1, (round_number - 1) % 2 + 1
        if step == 2:  # end of a phase: try to extract
            self._extract(phase)
        if round_number == st_agreement_rounds(self.config.t):
            self.decide(
                resolve_extracted(self._extracted, self.config, self.default),
                round_number,
            )

    def _extract(self, phase: int) -> None:
        for (source, value), supporters in self._support.items():
            if (source, value) in self._extracted:
                continue
            if source in supporters and len(supporters) >= phase:
                self._extracted.add((source, value))
                if phase + 1 <= self.config.t + 1:
                    self.primitive.schedule_broadcast(
                        ("val", source, value), phase + 1
                    )

    def snapshot(self) -> Any:
        return {
            "extracted": sorted(self._extracted, key=repr),
            "decision": self.decision,
        }


def st_agreement_factory(default: Value = 0):
    """A run_protocol factory for the ST-style comparator."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> STAgreementProcess:
        return STAgreementProcess(process_id, config, input_value, default=default)

    return factory


def st_item_bits(config: SystemConfig, value_alphabet_size: int) -> int:
    """Bits of one ST item: ids + value + phase tag.

    An item names a kind (2 bits), a broadcaster (``log n``), a phase
    (``log`` of the round bound) and a ``("val", source, value)``
    payload (``log n + log |V|``).
    """
    import math

    from repro.arrays.encoding import bits_for_alphabet

    index_bits = bits_for_alphabet(config.n)
    value_bits = bits_for_alphabet(value_alphabet_size)
    phase_bits = max(1, math.ceil(math.log2(config.t + 2)))
    return 2 + index_bits + phase_bits + index_bits + value_bits


def st_sizer(config: SystemConfig, value_alphabet_size: int):
    """Bit measure for ST traffic: :func:`st_item_bits` per item."""
    item_bits = st_item_bits(config, value_alphabet_size)

    def measure(message: Any) -> int:
        if isinstance(message, frozenset):
            return item_bits * len(message)
        return 0

    return measure
