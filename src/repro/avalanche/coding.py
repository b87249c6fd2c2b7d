"""The null-message coding convention (end of Section 4).

    "A processor that wishes to send the same message that it sent in
    the previous round instead sends the null message (at a cost of 0
    bits).  It is easy to show that using this convention each correct
    processor sends at most 3 non-null messages in any execution."

Why 3: a correct processor's broadcast sequence in Protocol 2 is its
input ``v`` (round 1), then either bottom or the persistent value
``w``, with the only possible later transition being bottom -> ``w``
(Lemma 4 plus the adoption rule).  The sequence therefore has at most
three runs — e.g. ``v, bottom, ..., bottom, w, w, ...`` — and only the
first element of each run is non-null.

:class:`NullEncoder` implements the sender side for broadcast
channels.  The receiving side — a null decodes to the sender's last
real message, or to bottom if there never was one — lives where the
votes are kept: :class:`repro.compact.subprotocol.AgreementBatch`
holds the decoded vote matrix across rounds, so a null there is simply
a cell left alone.  The metrics layer charges :data:`NULL_MESSAGE`
zero bits via the network's ``is_null``/``sizer`` hooks.
"""

from __future__ import annotations

from typing import Any

from repro.types import Sentinel


class _NullMessage(Sentinel):
    """Wire marker: "same as my previous round's message"."""

    NAME, TAG = "NULL_MESSAGE", "null-message"


NULL_MESSAGE = _NullMessage()


def is_null_message(message: Any) -> bool:
    """Whether ``message`` is the coding convention's null marker."""
    return message is NULL_MESSAGE


class NullEncoder:
    """Sender-side state: replaces repeats of the last broadcast by null.

    The convention is defined for broadcast traffic (Protocol 2
    broadcasts), so one remembered value per encoder suffices.
    """

    def __init__(self) -> None:
        self._last: Any = _UNSET

    def encode(self, message: Any) -> Any:
        """Return ``message`` or :data:`NULL_MESSAGE` if it repeats."""
        if self._last is not _UNSET and message == self._last:
            return NULL_MESSAGE
        self._last = message
        return message


class _Unset(Sentinel):
    NAME, TAG = "UNSET", "unset"


_UNSET = _Unset()
