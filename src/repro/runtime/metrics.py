"""Per-round, per-sender communication meters.

The paper's headline quantity is *message bits*.  The meter records,
for every round:

* messages sent and their measured bit sizes (via a protocol-supplied
  sizer, see :class:`repro.arrays.encoding.MessageSizer`),
* how many of those messages were *non-null* — the unit the avalanche
  coding convention of Section 4 bounds ("each correct processor sends
  at most 3 non-null messages in any execution").

Usage is broken down per round and per sender, the two units the
paper prices a protocol in (Corollary 10; Section 4).  The meter rides
in every pickled :class:`~repro.runtime.engine.ExecutionResult`, so it
keeps no table that grows with ``n ** 2``.

By default only traffic of **correct** processors is metered: the
paper's bounds quantify the protocol's cost, and a Byzantine processor
can send arbitrarily large garbage that says nothing about the
protocol.  Adversary traffic can be included for diagnostics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.types import ProcessId, Round


#: One meter row as it pickles: ``(messages, non_null_messages, bits)``.
_Row = Tuple[int, int, int]


class RoundUsage:
    """Aggregated communication in one round.

    A ``__slots__`` class rather than a dataclass: one exists per round
    and per sender of every metered execution and each is pickled with
    its result, so the per-instance ``__dict__`` was measurable in
    sweep profiles.  Equality and repr keep the dataclass semantics
    tests rely on.
    """

    __slots__ = ("messages", "non_null_messages", "bits")

    def __init__(
        self, messages: int = 0, non_null_messages: int = 0, bits: int = 0
    ):
        self.messages = messages
        self.non_null_messages = non_null_messages
        self.bits = bits

    def add(self, bits: int, non_null: bool) -> None:
        self.messages += 1
        self.bits += bits
        if non_null:
            self.non_null_messages += 1

    def add_many(self, messages: int, non_null_messages: int, bits: int) -> None:
        """Fold in the summed usage of several messages at once."""
        self.messages += messages
        self.non_null_messages += non_null_messages
        self.bits += bits

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, RoundUsage):
            return NotImplemented
        return (
            self.messages == other.messages
            and self.non_null_messages == other.non_null_messages
            and self.bits == other.bits
        )

    def __repr__(self) -> str:
        return (
            f"RoundUsage(messages={self.messages}, "
            f"non_null_messages={self.non_null_messages}, bits={self.bits})"
        )

    def __reduce__(self) -> Tuple[type, _Row]:
        return RoundUsage, self._row()

    def _row(self) -> _Row:
        return self.messages, self.non_null_messages, self.bits


class MessageMetrics:
    """Accumulates communication usage across an execution.

    Pickles as its rows, ``{round: row}`` and ``{sender: row}`` with
    each row a ``(messages, non_null_messages, bits)`` tuple, so a
    result crosses a process boundary as built-in values.
    """

    def __init__(self) -> None:
        self._per_round: Dict[Round, RoundUsage] = defaultdict(RoundUsage)
        self._per_sender: Dict[ProcessId, RoundUsage] = defaultdict(RoundUsage)

    def __reduce__(self) -> Tuple[Any, Tuple[Dict[Round, _Row], ...]]:
        return _metrics_from_rows, (
            {key: usage._row() for key, usage in self._per_round.items()},
            {key: usage._row() for key, usage in self._per_sender.items()},
        )

    def record(
        self,
        round_number: Round,
        sender: ProcessId,
        receiver: ProcessId,
        bits: int,
        non_null: bool = True,
    ) -> None:
        """Record one transmitted message.

        ``receiver`` says which message this is and selects no row:
        usage is kept per round and per sender.
        """
        self._per_round[round_number].add(bits, non_null)
        self._per_sender[sender].add(bits, non_null)

    def record_burst(
        self,
        round_number: Round,
        sender: ProcessId,
        messages: int,
        non_null_messages: int,
        bits: int,
    ) -> None:
        """Record one sender's summed traffic of one round.

        The network delivers a sender's round traffic in a burst of up
        to ``n`` messages that all land in the same two rows, so it
        sums them and touches each row once.  Equal to one
        :meth:`record` per message; like it, creates the rows it names
        — an all-bottom burst must not call this.
        """
        self._per_round[round_number].add_many(
            messages, non_null_messages, bits
        )
        self._per_sender[sender].add_many(messages, non_null_messages, bits)

    # -- totals -----------------------------------------------------------

    @property
    def total_bits(self) -> int:
        """Total measured bits across all rounds."""
        return sum(usage.bits for usage in self._per_round.values())

    @property
    def total_messages(self) -> int:
        """Total messages, null messages included."""
        return sum(usage.messages for usage in self._per_round.values())

    @property
    def total_non_null_messages(self) -> int:
        """Total non-null messages (the coding-convention unit)."""
        return sum(usage.non_null_messages for usage in self._per_round.values())

    @property
    def rounds_used(self) -> int:
        """Highest round number with any recorded traffic."""
        return max(self._per_round, default=0)

    # -- breakdowns -------------------------------------------------------

    def round_usage(self, round_number: Round) -> RoundUsage:
        """Usage within one round (zeroes if no traffic was recorded)."""
        return self._per_round.get(round_number, RoundUsage())

    def sender_usage(self, sender: ProcessId) -> RoundUsage:
        """Usage attributed to one sending processor."""
        return self._per_sender.get(sender, RoundUsage())

    def non_null_by_sender(self) -> Dict[ProcessId, int]:
        """Non-null message count per sender — Section 4's bound."""
        return {
            sender: usage.non_null_messages
            for sender, usage in self._per_sender.items()
        }

    def bits_by_round(self) -> List[Tuple[Round, int]]:
        """(round, bits) pairs in round order."""
        return sorted(
            (round_number, usage.bits)
            for round_number, usage in self._per_round.items()
        )

    def as_counters(self, prefix: str = "net") -> Dict[str, int]:
        """The totals as instrumentation-registry counter deltas.

        The bridge into :class:`repro.obs.registry.InstrumentRegistry`:
        ``registry.absorb(metrics.as_counters())`` folds an execution's
        meters into the dotted-counter namespace.
        """
        return {
            f"{prefix}.messages": self.total_messages,
            f"{prefix}.non_null_messages": self.total_non_null_messages,
            f"{prefix}.bits": self.total_bits,
        }

    def merge(self, other: "MessageMetrics") -> None:
        """Fold another meter's records into this one."""
        for round_number, usage in other._per_round.items():
            self._per_round[round_number].add_many(
                usage.messages, usage.non_null_messages, usage.bits
            )
        for sender, usage in other._per_sender.items():
            self._per_sender[sender].add_many(
                usage.messages, usage.non_null_messages, usage.bits
            )


def _metrics_from_rows(
    per_round: Dict[Round, _Row], per_sender: Dict[ProcessId, _Row]
) -> MessageMetrics:
    """The meter :meth:`MessageMetrics.__reduce__` wrote as rows."""
    metrics = MessageMetrics()
    for round_number, row in per_round.items():
        metrics._per_round[round_number] = RoundUsage(*row)
    for sender, row in per_sender.items():
        metrics._per_sender[sender] = RoundUsage(*row)
    return metrics
