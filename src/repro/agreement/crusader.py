"""Dolev's crusader agreement [5].

Section 4 contrasts avalanche agreement with crusader agreement: "the
two problems are incomparable.  Crusader agreement is a harder problem
in that all executions of a protocol must be deciding executions.
Avalanche agreement is harder in that the answer, if it exists, must
be unique" — a crusader execution may split correct processors between
*one* common value and the verdict "the sender is faulty".

Single-source, two rounds, ``n >= 3t + 1``:

* **round 1** — the source broadcasts its value;
* **round 2** — every processor echoes what it received; a processor
  decides a value echoed at least ``n - t`` times, else decides
  :data:`SENDER_FAULTY`.

If the source is correct every processor sees ``n - t`` echoes of its
value.  Two correct processors can never decide *different values*:
two ``n - t`` echo quorums would overlap in ``n - 2t >= t + 1``
processors, one of them correct and echoing consistently.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import (
    BOTTOM,
    ProcessId,
    Round,
    Sentinel,
    SystemConfig,
    Value,
    is_bottom,
)


#: Protoflow taint: values from ``incoming`` must pass a legality
#: filter before they reach state or a payload (docs/statics.md).
TAINT_SANITIZERS = {
    "_scalar": (
        "rejects BOTTOM, tuples and unhashable junk; what remains is a "
        "hashable scalar the quorum count in round 2 can only decide "
        "when n - t processors echoed it"
    ),
}


class _SenderFaulty(Sentinel):
    """The crusader verdict "the sender is faulty"."""

    NAME, TAG = "SENDER_FAULTY", "sender-faulty"


SENDER_FAULTY = _SenderFaulty()


class CrusaderProcess(Process):
    """One processor of two-round crusader agreement."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        source: ProcessId,
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"crusader agreement needs n >= 3t+1; got n={config.n}, "
                f"t={config.t}"
            )
        self.source = source
        self.input_value = input_value
        self._received: Value = BOTTOM

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        if round_number == 1:
            if self.process_id == self.source:
                return broadcast(self.input_value, self.config)
            return {}
        return broadcast(self._received, self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        if round_number == 1:
            message = incoming[self.source]
            if self._scalar(message):
                self._received = message
            return
        if round_number != 2:
            return
        counts: Dict[Value, int] = {}
        for sender in self.config.process_ids:
            echo = incoming[sender]
            if self._scalar(echo):
                counts[echo] = counts.get(echo, 0) + 1
        for value, count in counts.items():
            if count >= self.config.n - self.config.t:
                self.decide(value, round_number)
                return
        self.decide(SENDER_FAULTY, round_number)

    @staticmethod
    def _scalar(value: Any) -> bool:
        if is_bottom(value) or isinstance(value, tuple):
            return False
        try:
            hash(value)
        except TypeError:
            return False
        return True

    def snapshot(self) -> Any:
        return {"received": self._received, "decision": self.decision}


def crusader_factory(source: ProcessId):
    """A run_protocol factory for crusader agreement with ``source``."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> CrusaderProcess:
        return CrusaderProcess(process_id, config, input_value, source=source)

    return factory
