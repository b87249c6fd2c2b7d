"""Round messages of the compact protocol, and their exact bit sizes.

Per Section 5.2, when ``x`` subprotocols are active every round
message is an ``(x + 1)``-tuple: one component for the main protocol
(a CORE array, or nothing in rounds with no main broadcast) and one
component per active avalanche batch (an ``n``-tuple of votes, each a
CORE-sized array, a bottom, or the 0-bit null marker).

The sizer charges exactly what Section 5.6 counts:

* CORE / vote arrays — per-leaf alphabet bits plus per-node framing
  (values for block 1, processor indices afterwards),
* null-coded votes — 0 bits,
* absent components — 0 bits.

``votes`` arrives from possibly faulty senders, so every reader —
the receiving processor, the sizer and the null test — goes through
:meth:`CompactPayload.vote_slots`, which fails closed: a ``votes``
field or a slot of the wrong shape carries no votes (0 bits, null),
whatever it holds, and never raises.  It reads each payload once, and
through the base classes — ``tuple``'s own ``__len__`` and
``__iter__``, a boundary as an exact ``int`` — so no code of the
payload's runs; vote tuples are iterated the same way wherever read.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Tuple

from repro.arrays.encoding import MessageSizer
from repro.avalanche.coding import NULL_MESSAGE, is_null_message
from repro.types import BOTTOM, SystemConfig, is_bottom

VoteSlot = Tuple[int, Tuple[Any, ...]]


def _read_slots(votes: Any) -> Tuple[VoteSlot, ...]:
    """The well-formed ``(int, tuple)`` slots of a ``votes`` field."""
    if not issubclass(type(votes), tuple):
        return ()
    slots = []
    exact = type(votes) is tuple
    for slot in tuple.__iter__(votes):
        if issubclass(type(slot), tuple) and tuple.__len__(slot) == 2:
            boundary, vote_tuple = tuple.__iter__(slot)
            if issubclass(type(boundary), int) and issubclass(
                type(vote_tuple), tuple
            ):
                if type(slot) is not tuple or type(boundary) is not int:
                    slot = (int.__int__(boundary), vote_tuple)
                    exact = False
                slots.append(slot)
                continue
        exact = False
    return votes if exact else tuple(slots)


@dataclasses.dataclass(frozen=True)
class CompactPayload:
    """One round's message: main CORE component plus batch votes.

    ``votes`` holds ``(boundary, vote_tuple)`` pairs for each active
    batch, in boundary order, so the structure is identical at all
    correct processors (they start the same subprotocols at the same
    rounds).
    """

    main: Any
    votes: Tuple[VoteSlot, ...] = ()

    def __post_init__(self) -> None:
        # Read once, when the payload is built: every receiver, the
        # sizer and the null test share the result.
        slots = _read_slots(self.votes)
        by_boundary: Dict[int, Tuple[Any, ...]] = {}
        for boundary, vote_tuple in slots:
            by_boundary.setdefault(boundary, vote_tuple)
        object.__setattr__(self, "_slots", slots)
        #: Per boundary, the vote tuple of its first well-formed slot.
        object.__setattr__(self, "votes_by_boundary", by_boundary)

    def vote_slots(self) -> Tuple[VoteSlot, ...]:
        """The well-formed ``(boundary, vote_tuple)`` slots of ``votes``.

        The one fail-closed reading of a field a Byzantine sender
        controls: ``votes`` that is not a tuple holds no slots, and a
        slot that is not an ``(int, tuple)`` pair is dropped — that
        sender simply cast no votes there.  Whether a vote tuple has
        the receiver's ``n`` slots is the batch's test, not this one.
        """
        return self._slots  # every honest payload: ``votes`` itself


def compact_sizer(
    config: SystemConfig, value_alphabet_size: int
) -> Callable[[Any], int]:
    """Exact measured size, in bits, of a compact-protocol payload."""
    sizer = MessageSizer(value_alphabet_size, config.n)

    def measure_component(component: Any) -> int:
        if is_bottom(component) or is_null_message(component):
            return 0
        return sizer.measure(component)

    def measure(payload: Any) -> int:
        if type(payload) is not CompactPayload:
            return measure_component(payload)
        total = measure_component(payload.main)
        for _, vote_tuple in payload.vote_slots():
            for vote in tuple.__iter__(vote_tuple):
                # Almost every vote of a run is null: no call for those.
                if vote is not NULL_MESSAGE and vote is not BOTTOM:
                    total += sizer.measure(vote)
        return total

    return measure


def payload_is_null(payload: Any) -> bool:
    """Whether a payload carries no billable content at all."""
    if type(payload) is not CompactPayload:
        return is_bottom(payload) or is_null_message(payload)
    if not (is_bottom(payload.main) or is_null_message(payload.main)):
        return False
    for _, vote_tuple in payload.vote_slots():
        for vote in tuple.__iter__(vote_tuple):
            if vote is not NULL_MESSAGE and vote is not BOTTOM:
                return False
    return True
