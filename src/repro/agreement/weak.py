"""Lamport's weak Byzantine agreement [12].

Weak agreement keeps the agreement condition but weakens validity: the
input must be decided only when *no processor is faulty* and all
inputs agree.  The classic construction: one exchange round to test
apparent unanimity, then ordinary binary agreement on the result.

* **round 1** — broadcast the input; set ``x = input`` if *all* ``n``
  received messages equal it (anything less is possible evidence of a
  fault), else ``x = default``;
* run a binary agreement protocol on ``bit = 1 if x == input else 0``
  … in the binary-input case it is simpler still: run the binary
  protocol directly on ``x`` (here inputs are required binary, so
  ``x`` is a legal binary input).

Agreement follows from the inner protocol's agreement.  Weak validity:
with no faults and unanimous inputs ``v``, every processor's round-1
view is all-``v``, so every ``x = v`` and the inner protocol's
validity forces a ``v`` decision.  The resilience is the inner
protocol's: ``n >= 3t + 1`` over Phase King.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import ProcessId, Round, SystemConfig, Value

BinaryFactory = Callable[[ProcessId, SystemConfig, int], Process]


class WeakAgreementProcess(Process):
    """Binary weak agreement wrapping a binary agreement protocol."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        binary_factory: BinaryFactory,
        default: int = 0,
    ):
        super().__init__(process_id, config)
        if input_value not in (0, 1) or isinstance(input_value, bool):
            raise ConfigurationError(
                f"weak agreement here is binary; got {input_value!r}"
            )
        self.input_value = int(input_value)
        self.default = default
        self._binary_factory = binary_factory
        self._inner: Optional[Process] = None

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        if round_number == 1:
            return broadcast(self.input_value, self.config)
        return self._inner.outgoing(round_number - 1)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        if round_number == 1:
            unanimous = all(
                incoming[sender] == self.input_value
                for sender in self.config.process_ids
            )
            x = self.input_value if unanimous else self.default
            self._inner = self._binary_factory(self.process_id, self.config, x)
            return
        self._inner.receive(round_number - 1, incoming)
        if self._inner.has_decided() and not self.has_decided():
            self.decide(self._inner.decision, round_number)

    def snapshot(self) -> Any:
        return {"decision": self.decision}


def weak_agreement_factory(binary_factory: BinaryFactory, default: int = 0):
    """A run_protocol factory for weak agreement."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> WeakAgreementProcess:
        return WeakAgreementProcess(
            process_id,
            config,
            input_value,
            binary_factory=binary_factory,
            default=default,
        )

    return factory
