"""The Turpin–Coan multivalued-to-binary reduction [19].

Section 5.6 cites this (with Perry [16]) as an optimisation with "a
similar (and small) impact on both protocols" being compared — it
turns any binary Byzantine agreement protocol into a multivalued one
at the cost of two extra rounds, for ``n >= 3t + 1``:

* **round 1** — broadcast the (multivalued) input; remember any value
  seen at least ``n - t`` times (at most one can exist);
* **round 2** — broadcast that candidate (or nothing); let ``g`` be
  the most frequent candidate received, ``c`` its count.  Every
  correct processor's non-null round-2 message carries the *same*
  value (two different ones would need two ``n - t`` round-1 quorums
  sharing a correct processor), so if ``c >= t + 1`` then ``g`` is
  that common value;
* run the binary protocol on ``b = 1 if c >= n - t else 0``; if it
  decides 1, decide ``g`` (the 1-decision implies some correct
  processor had ``c >= n - t``, hence everyone had
  ``c >= n - 2t >= t + 1`` and the same ``g``); otherwise decide the
  common default.

Validity: a unanimous input ``v`` makes every count ``n - t``, every
``b = 1``, and every ``g = v``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom

# Builds the embedded binary process from (process_id, config, bit).
BinaryFactory = Callable[[ProcessId, SystemConfig, int], Process]


class TurpinCoanProcess(Process):
    """Multivalued agreement wrapping a binary protocol."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        binary_factory: BinaryFactory,
        default: Value,
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"Turpin-Coan needs n >= 3t+1; got n={config.n}, t={config.t}"
            )
        self.input_value = input_value
        self.default = default
        self._binary_factory = binary_factory
        self._candidate_broadcast: Value = BOTTOM
        self._candidate: Value = BOTTOM
        self._inner: Optional[Process] = None

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        if round_number == 1:
            return broadcast(self.input_value, self.config)
        if round_number == 2:
            return broadcast(self._candidate_broadcast, self.config)
        return self._inner.outgoing(round_number - 2)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        config = self.config
        if round_number == 1:
            counts: Dict[Value, int] = {}
            for sender in config.process_ids:
                value = incoming[sender]
                if self._scalar(value):
                    counts[value] = counts.get(value, 0) + 1
            self._candidate_broadcast = BOTTOM
            for value, count in counts.items():
                if count >= config.n - config.t:
                    self._candidate_broadcast = value
        elif round_number == 2:
            counts = {}
            for sender in config.process_ids:
                value = incoming[sender]
                if self._scalar(value):
                    counts[value] = counts.get(value, 0) + 1
            if counts:
                best = min(
                    counts, key=lambda value: (-counts[value], repr(value))
                )
                best_count = counts[best]
            else:
                best, best_count = BOTTOM, 0
            if best_count >= config.t + 1:
                self._candidate = best
            bit = 1 if best_count >= config.n - config.t else 0
            self._inner = self._binary_factory(self.process_id, config, bit)
        else:
            self._inner.receive(round_number - 2, incoming)
            if self._inner.has_decided() and not self.has_decided():
                if self._inner.decision == 1 and not is_bottom(self._candidate):
                    self.decide(self._candidate, round_number)
                else:
                    self.decide(self.default, round_number)

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
        return {"candidate": self._candidate, "decision": self.decision}


def turpin_coan_factory(binary_factory: BinaryFactory, default: Value):
    """A run_protocol factory for the reduction."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> TurpinCoanProcess:
        return TurpinCoanProcess(
            process_id,
            config,
            input_value,
            binary_factory=binary_factory,
            default=default,
        )

    return factory
