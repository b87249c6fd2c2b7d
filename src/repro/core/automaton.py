"""Protocols as synchronous systems of automata (Section 3.1).

Following Lynch, Fischer and Fowler, a protocol ``P`` is described by

* ``V`` — the set of input values (an element of the state set is
  identified with each element of ``V``; these are the initial
  states),
* ``Q`` — the processor states,
* ``L`` — the messages,
* ``mu_pq : Q -> L`` — message generation, from ``p`` to ``q``,
* ``delta_p : L^n -> Q`` — state transition (the prior state is
  omitted: a processor can send anything it needs to itself),
* ``gamma_p : Q -> {BOTTOM} u V`` — the decision function; a
  processor's decision is the first non-bottom value of ``gamma_p``.

:class:`AutomatonProtocol` is that description as an object.  It can
be *run natively* on the synchronous runtime via
:class:`AutomatonProcess`, *reconstructed* from full-information
states via :func:`repro.fullinfo.protocol.reconstruct_state`
(Theorem 2), or *transformed* into the communication-efficient
canonical form via :mod:`repro.core.transform`.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.node import Process
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value


class AutomatonProtocol(abc.ABC):
    """One consensus protocol in the Section 3.1 formalism.

    Subclasses define the four functions plus the input alphabet and,
    for terminating protocols, the round bound after which every
    execution has decided (``rounds_to_decide``).
    """

    def __init__(self, config: SystemConfig, input_values: Sequence[Value]):
        if not input_values:
            raise ConfigurationError("input alphabet V must be non-empty")
        self.config = config
        self.input_values: Tuple[Value, ...] = tuple(input_values)

    # -- the four functions -------------------------------------------------

    def initial_state(self, process_id: ProcessId, input_value: Value) -> Any:
        """The initial state identified with ``input_value``."""
        if input_value not in self.input_values:
            raise ConfigurationError(
                f"input {input_value!r} is not in V={self.input_values!r}"
            )
        return input_value

    @abc.abstractmethod
    def message(self, sender: ProcessId, receiver: ProcessId, state: Any) -> Any:
        """``mu_pq``: the message ``sender`` sends ``receiver``."""

    @abc.abstractmethod
    def transition(self, process_id: ProcessId, messages: Tuple[Any, ...]) -> Any:
        """``delta_p``: next state from the n-tuple of received messages.

        ``messages[q - 1]`` is the message received from processor
        ``q`` (1-based ids, 0-based tuple as in the paper's ``L^n``).
        """

    @abc.abstractmethod
    def decision(self, process_id: ProcessId, state: Any) -> Value:
        """``gamma_p``: a value once ready to decide, else BOTTOM."""

    # -- protocol metadata ----------------------------------------------------

    @property
    def rounds_to_decide(self) -> Optional[int]:
        """Round bound by which every execution decides, if known."""
        return None

    def coerce_message(
        self, sender: ProcessId, receiver: ProcessId, raw: Any, round_number: Round
    ) -> Any:
        """Map arbitrary received bytes into the message set ``L``.

        The formal model says faulty processors send arbitrary messages
        *from L*; a real network can deliver anything (or nothing), so
        each protocol defines how a correct processor normalises
        off-alphabet receptions.  The default maps everything through
        unchanged except an absent message, which becomes the
        protocol's :meth:`default_message`.
        """
        if raw is BOTTOM:
            return self.default_message(sender, receiver, round_number)
        return raw

    def default_message(
        self, sender: ProcessId, receiver: ProcessId, round_number: Round
    ) -> Any:
        """The element of ``L`` substituted for an absent message."""
        return self.input_values[0]


class AutomatonProcess(Process):
    """Runs one :class:`AutomatonProtocol` processor on the runtime."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        protocol: AutomatonProtocol,
    ):
        super().__init__(process_id, config)
        self.protocol = protocol
        self.state = protocol.initial_state(process_id, input_value)
        self._maybe_decide(round_number=0)

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return {
            receiver: self.protocol.message(self.process_id, receiver, self.state)
            for receiver in self.config.process_ids
        }

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        messages = tuple(
            self.protocol.coerce_message(
                sender, self.process_id, incoming[sender], round_number
            )
            for sender in self.config.process_ids
        )
        self.state = self.protocol.transition(self.process_id, messages)
        self._maybe_decide(round_number)

    def _maybe_decide(self, round_number: Round) -> None:
        if self.has_decided():
            return  # later gamma values are ignored once decided
        value = self.protocol.decision(self.process_id, self.state)
        if value is not BOTTOM:
            self.decide(value, round_number)

    def snapshot(self) -> Any:
        return {"state": self.state, "decision": self.decision}


def automaton_factory(protocol: AutomatonProtocol):
    """A :func:`repro.runtime.engine.run_protocol` factory for ``protocol``."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> AutomatonProcess:
        return AutomatonProcess(process_id, config, input_value, protocol)

    return factory
