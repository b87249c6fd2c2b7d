"""Test-only oracle: the firing squad over plain, un-interned tuples.

This is the instance loop ``repro.agreement.firing_squad`` ran before
it moved onto the interned array kernel, kept here as the reference
the equivalence tests compare against: every message of every live
instance is re-validated with the recursive
:func:`~repro.arrays.value_array.validate_array` walk, states are
ordinary nested tuples, and the decision takes the plain-tuple branch
of ``eig_byzantine_decision``.  Slow and obviously right; nothing under
``src/`` may import it.

One deliberate difference from the deleted code: a view nested deeper
than the interpreter's recursion limit made the old walk raise
``RecursionError`` out of a correct processor.  The specification is
"malformed, so substitute", and the oracle says so.
"""

from typing import Any, Dict, Optional

from repro.arrays.value_array import validate_array
from repro.fullinfo.decision import eig_byzantine_decision
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom


def _legal_view(message: Any, n: int, depth: int) -> bool:
    if is_bottom(message):
        return False
    try:
        return validate_array(
            message, n, depth=depth, leaf_ok=lambda leaf: leaf in (0, 1)
        )
    except RecursionError:
        return False


class ReferenceInstance:
    """One staggered EIG agreement instance, binary, simultaneous."""

    def __init__(self, config: SystemConfig, start_round: Round, my_input: int):
        self.config = config
        self.start_round = start_round
        self.state: Any = my_input
        self.rounds_done = 0
        self.decision: Optional[int] = None

    def receive(self, messages: Dict[ProcessId, Any]) -> None:
        components = []
        for sender in self.config.process_ids:
            message = messages.get(sender, BOTTOM)
            if not _legal_view(message, self.config.n, self.rounds_done):
                message = self.state
            components.append(message)
        self.state = tuple(components)
        self.rounds_done += 1
        if self.rounds_done == self.config.t + 1:
            self.decision = eig_byzantine_decision(
                self.state,
                self.config.n,
                self.config.t,
                process_id=0,
                default=0,
                alphabet=[0, 1],
            )


class ReferenceFiringSquadProcess(Process):
    """The pre-kernel ``FiringSquadProcess``, line for line."""

    def __init__(
        self, process_id: ProcessId, config: SystemConfig, input_value: Value
    ):
        super().__init__(process_id, config)
        self.go_round = input_value
        self._instances: Dict[Round, ReferenceInstance] = {}

    def _go_received_by(self, round_number: Round) -> bool:
        return not is_bottom(self.go_round) and self.go_round <= round_number

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        self._instances[round_number] = ReferenceInstance(
            self.config,
            start_round=round_number,
            my_input=1 if self._go_received_by(round_number) else 0,
        )
        payload = {
            start: instance.state
            for start, instance in self._instances.items()
        }
        return broadcast(payload, self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        for start in sorted(self._instances):
            instance = self._instances[start]
            messages = {}
            for sender in self.config.process_ids:
                payload = incoming.get(sender, BOTTOM)
                if isinstance(payload, dict):
                    messages[sender] = payload.get(start, BOTTOM)
                else:
                    messages[sender] = BOTTOM
            instance.receive(messages)
        if not self.has_decided():
            for start in sorted(self._instances):
                if self._instances[start].decision == 1:
                    self.decide("FIRE", round_number)
                    break
        for start in list(self._instances):
            if self._instances[start].decision is not None:
                del self._instances[start]
        if self.has_decided():
            self._instances.clear()

    def states(self) -> Dict[Round, Any]:
        """Live instance states by start round."""
        return {
            start: instance.state
            for start, instance in self._instances.items()
        }

    def snapshot(self) -> Any:
        return {
            "go_round": self.go_round,
            "live_instances": sorted(self._instances),
            "decision": self.decision,
        }


def reference_firing_squad_factory():
    """A run_protocol factory for the plain-tuple oracle."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> ReferenceFiringSquadProcess:
        return ReferenceFiringSquadProcess(process_id, config, input_value)

    return factory
