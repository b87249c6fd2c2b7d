"""Test-only oracle: Protocol 1 over plain, un-interned tuples.

This is the receive loop ``repro.fullinfo.protocol`` ran under
``intern=False`` before that switch was retired, kept here as the
reference the interning tests compare against: every incoming message
is re-validated with the recursive
:func:`~repro.arrays.value_array.validate_array` walk, states are
ordinary nested tuples, and a decision rule sees the plain-tuple
branch of whatever it calls.  Slow and obviously right; nothing under
``src/`` may import it.
"""

from typing import Any, Dict, Optional, Sequence

from repro.arrays import value_array
from repro.fullinfo.decision import make_eig_decision_rule
from repro.fullinfo.gate import DecisionRule
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value


class ReferenceFullInformationProcess(Process):
    """The ``intern=False`` ``FullInformationProcess``, line for line."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        value_alphabet: Sequence[Value],
        decision_rule: Optional[DecisionRule] = None,
        horizon: Optional[int] = None,
    ):
        super().__init__(process_id, config)
        self.state: Any = input_value
        self._alphabet = frozenset(value_alphabet)
        self._decision_rule = decision_rule
        self._horizon = horizon

    def _leaf_ok(self, leaf: Any) -> bool:
        try:
            return leaf in self._alphabet
        except TypeError:  # unhashable leaf from a Byzantine sender
            return False

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(self.state, self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        components = []
        for sender in self.config.process_ids:
            message = incoming[sender]
            # Looked up on the module so a test can count the walks.
            if message is BOTTOM or not value_array.validate_array(
                message,
                self.config.n,
                depth=round_number - 1,
                leaf_ok=self._leaf_ok,
            ):
                message = self.state  # own previous state: right shape
            components.append(message)
        self.state = tuple(components)
        if self.has_decided() or self._decision_rule is None:
            return
        if self._horizon is not None and round_number < self._horizon:
            return
        value = self._decision_rule(self.state, round_number, self.process_id)
        if value is not BOTTOM:
            self.decide(value, round_number)

    def snapshot(self) -> Any:
        return {"state": self.state, "decision": self.decision}


def reference_full_information_factory(
    value_alphabet: Sequence[Value],
    decision_rule: Optional[DecisionRule] = None,
    horizon: Optional[int] = None,
):
    """A run_protocol factory for the plain-tuple oracle."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> ReferenceFullInformationProcess:
        return ReferenceFullInformationProcess(
            process_id,
            config,
            input_value,
            value_alphabet=value_alphabet,
            decision_rule=decision_rule,
            horizon=horizon,
        )

    return factory


def reference_eig_agreement_factory(
    config: SystemConfig, value_alphabet: Sequence[Value], default: Value
):
    """``eig_agreement_factory`` over the oracle: same rule, same horizon."""
    return reference_full_information_factory(
        value_alphabet,
        decision_rule=make_eig_decision_rule(
            config.t, default=default, alphabet=value_alphabet
        ),
        horizon=config.t + 1,
    )
