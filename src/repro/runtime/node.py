"""The process harness protocols implement.

A round of any protocol consists of three components performed in
order: sending messages, receiving messages, and a local state change
(Section 3.1).  A :class:`Process` exposes exactly that structure:

* :meth:`Process.outgoing` is called first each round and returns the
  messages to send,
* :meth:`Process.receive` is called after delivery with the full
  incoming map and performs the local state change.

Decisions are irrevocable, as the problem statements require: once
:meth:`Process.decide` has been called, a second call with a different
value raises :class:`repro.errors.DecisionError`.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import (
    Any,
    Dict,
    ItemsView,
    Iterator,
    Mapping,
    NoReturn,
    Optional,
    Tuple,
    ValuesView,
)

from repro.errors import DecisionError
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom


class Broadcast(Mapping[ProcessId, Any]):
    """A recipient map that sends one ``message`` to every processor.

    What :func:`broadcast` builds (and nothing else should): equal to
    the plain ``{process_id: message}`` dict for every reader, it
    additionally says so in :attr:`message`, which lets the network
    measure, meter and land the burst once instead of once per copy.
    It holds only the message and :attr:`process_ids`, the config's
    shared id tuple, so making one costs the same at any ``n``; a
    lookup (``b[k]``, ``get``, ``in``) scans that tuple, and ``items()``
    and ``values()`` read one plain copy.  Because delivery trusts
    :attr:`message`, the map refuses every item edit with ``TypeError``
    — ``dict(b)`` and ``b.copy()`` are the editable copy — and it
    pickles and copies as the plain dict.  The two slots themselves are
    plain attributes: a sender does not reassign them, and the
    adversary sees the map only through a read-only
    :class:`types.MappingProxyType`.
    """

    __slots__ = ("message", "process_ids")

    def __getitem__(self, key: Any) -> Any:
        if key in self.process_ids:
            return self.message
        hash(key)  # an unhashable key raises TypeError, as on a dict
        raise KeyError(key)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self.process_ids)

    def __len__(self) -> int:
        return len(self.process_ids)

    def get(self, key: Any, default: Any = None) -> Any:
        if key in self.process_ids:
            return self.message
        hash(key)
        return default

    def copy(self) -> Dict[ProcessId, Any]:
        """The editable plain ``{process_id: message}`` dict."""
        return dict.fromkeys(self.process_ids, self.message)

    def items(self) -> ItemsView[ProcessId, Any]:
        return self.copy().items()

    def values(self) -> ValuesView[Any]:
        return self.copy().values()

    def __eq__(self, other: Any) -> bool:
        return self.copy() == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self.copy())

    def _refuse_edit(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError(
            "a Broadcast sends one message to everyone and cannot be "
            "edited; edit dict(broadcast) instead"
        )

    __setitem__ = __delitem__ = __ior__ = _refuse_edit
    clear = pop = popitem = setdefault = update = _refuse_edit

    def __reduce__(self) -> Tuple[type, Tuple[Dict[ProcessId, Any]]]:
        return dict, (self.copy(),)


#: Makes a bare :class:`Broadcast`: the class has no Python-level
#: ``__init__`` to run on the once-per-sender-per-round path.
_new_broadcast = partial(object.__new__, Broadcast)


def broadcast(message: Any, config: SystemConfig) -> Broadcast:
    """Send the same ``message`` to every processor (including self).

    The paper's protocols broadcast to all ``n`` processors, self
    included — a processor "can send any required information in a
    message to itself" (Section 3.1).
    """
    burst = _new_broadcast()
    burst.message = message
    burst.process_ids = config.process_ids
    return burst


class Process(abc.ABC):
    """Base class for one correct processor's protocol logic.

    Subclasses implement :meth:`outgoing` and :meth:`receive`.  The
    engine guarantees that for every round ``r`` it calls
    ``outgoing(r)`` exactly once, then ``receive(r, incoming)`` exactly
    once, with ``incoming`` holding one entry per processor id (absent
    or malformed transmissions appear as :data:`BOTTOM`).

    The contract is deliberately *order-independent*: the engine calls
    receivers in processor-id order, but a protocol may not rely on
    *when* one processor's ``receive(r, ...)`` runs relative to
    another's.  It must not communicate with other processes except
    through its returned messages (no shared mutable state, no
    out-of-band channels); tests/integration/test_no_io.py runs every
    automaton under an audit hook and checks that a run does no I/O
    and leaves no state behind, and the schedule-invariance suite
    (tests/runtime/test_scheduler_equivalence.py) demonstrates that
    violating it — and only violating it — makes an asynchronous
    schedule observable.

    The base class declares ``__slots__`` so its four fields never pay
    for a dict entry; subclasses that declare their own ``__slots__``
    stay fully dict-free on the hot path, and subclasses that don't
    still get a ``__dict__`` for their extra state as usual.
    """

    __slots__ = ("process_id", "config", "_decision", "_decision_round")

    def __init__(self, process_id: ProcessId, config: SystemConfig):
        self.process_id = process_id
        self.config = config
        self._decision: Value = BOTTOM
        self._decision_round: Optional[Round] = None

    # -- round structure ------------------------------------------------

    @abc.abstractmethod
    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        """Messages to send this round, keyed by destination.

        Destinations omitted from the map receive :data:`BOTTOM`; a key
        that is not a processor id is an error.  One message for
        everyone is best returned as :func:`broadcast` builds it — the
        network then delivers the burst once, not once per copy.
        """

    @abc.abstractmethod
    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        """Local state change, given this round's received messages."""

    # -- decisions --------------------------------------------------------

    def decide(self, value: Value, round_number: Round) -> None:
        """Irrevocably decide ``value``.

        Idempotent for the same value; raises :class:`DecisionError`
        on any attempt to change an existing decision, and on an
        attempt to decide :data:`BOTTOM`.
        """
        if is_bottom(value):
            raise DecisionError(
                f"processor {self.process_id} attempted to decide BOTTOM"
            )
        if self.has_decided():
            if self._decision != value:
                raise DecisionError(
                    f"processor {self.process_id} attempted to change its "
                    f"decision from {self._decision!r} to {value!r}"
                )
            return
        self._decision = value
        self._decision_round = round_number

    def has_decided(self) -> bool:
        """Whether this processor has irrevocably decided."""
        return not is_bottom(self._decision)

    @property
    def decision(self) -> Value:
        """The decided value, or :data:`BOTTOM` if undecided."""
        return self._decision

    @property
    def decision_round(self) -> Optional[Round]:
        """The round in which the decision was made, or ``None``."""
        return self._decision_round

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> Any:
        """A representation of local state for traces and checkers.

        Protocols that participate in simulation checking override
        this; the default exposes only the decision status.
        """
        return {"decision": self._decision}
