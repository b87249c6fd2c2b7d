"""The Byzantine firing squad problem (named in the paper's intro).

Processors receive external GO stimuli at arbitrary (possibly
different, possibly no) rounds; correct processors must eventually
**fire**, and must do so *simultaneously*:

* **simultaneity** — all correct processors fire in the same round;
* **safety** — if no correct processor ever receives GO, no correct
  processor fires;
* **liveness** — if every correct processor receives GO by round
  ``r``, all fire by round ``r + t + 1``.

**Construction** (the staggered-instances reduction of Burns–Lynch):
starting at every round ``r``, all processors run one fresh instance
of a *simultaneous-decision* Byzantine agreement protocol — here the
``t + 1``-round EIG protocol (``n >= 3t + 1``), whose correct processors all
decide in the same round — with input "have I received GO by round ``r``?".
Instance start rounds are common knowledge (every round has one), so
no agreement about starting is needed; everyone fires at the decision
round of the earliest instance that decides 1.

The conditions follow from Byzantine agreement's own: agreement makes
the firing instance common; EIG's fixed decision round makes firing
simultaneous; validity gives safety (all-0 inputs decide 0) and
liveness (the instance of the first round where every correct
processor has GO decides 1 by validity... decided value 1 requires at
least one correct GO — see :meth:`FiringSquadProcess._decide_fire` —
so a fire implies a stimulus, and unanimous GO forces one).

Cost: an instance opened at round ``r`` is retired after its
``t + 1``-th exchange (round ``r + t``), so at most ``t + 1`` instances
are live in any round and each relays a view of depth at most ``t`` —
the message budget
:func:`repro.analysis.complexity.firing_squad_message_bits` states.

Each instance *is* a binary full-information protocol (Protocol 1)
with the EIG decision rule, so it runs on the same array kernel as
:class:`repro.fullinfo.protocol.FullInformationProcess`: one
:class:`repro.fullinfo.gate.ReceiveGate` per processor, shared by its
live instances, turns every received view into a canonical node of the
shared store or rejects it, and instance states are interned, so
validation is O(new nodes) and the decision takes the flat sweep.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.arrays.store import shared_store
from repro.errors import ConfigurationError
from repro.fullinfo.decision import eig_byzantine_decision
from repro.fullinfo.gate import REJECT, ReceiveGate
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom


class FiringSquadProcess(Process):
    """One processor of the Byzantine firing squad.

    The input value is the round at which this processor's external GO
    arrives (:data:`BOTTOM` for "never").  "Firing" is modelled as the
    irrevocable decision ``"FIRE"``.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"firing squad needs n >= 3t+1; got n={config.n}, t={config.t}"
            )
        if not (is_bottom(input_value) or (
            isinstance(input_value, int)
            and not isinstance(input_value, bool)
            and input_value >= 1
        )):
            raise ConfigurationError(
                f"input must be a GO round >= 1 or BOTTOM, got {input_value!r}"
            )
        self.go_round = input_value
        # Live instances: start round -> full-information state.  An
        # instance's age is the current round minus its start, so the
        # state is all there is to keep.
        self._instances: Dict[Round, Any] = {}
        self._gate = ReceiveGate(shared_store(config.n), (0, 1))

    # -- stimuli ---------------------------------------------------------

    def _go_received_by(self, round_number: Round) -> bool:
        return not is_bottom(self.go_round) and self.go_round <= round_number

    # -- round structure -----------------------------------------------------

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        # Open this round's instance (its first send happens now) on
        # the input "have I received GO by this round?".
        self._instances[round_number] = (
            1 if self._go_received_by(round_number) else 0
        )
        return broadcast(dict(self._instances), self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        # A well-formed payload maps instance start rounds to views;
        # anything else contributes nothing to any instance.
        payloads = [
            payload if isinstance(payload, dict) else None
            for payload in map(incoming.get, self.config.process_ids)
        ]
        gate = self._gate
        intern = gate.store.intern
        instances = self._instances
        for start, own in instances.items():
            depth = round_number - start
            components = []
            for payload in payloads:
                message = (
                    REJECT
                    if payload is None
                    else gate.admit(payload.get(start, BOTTOM), depth)
                )
                # Theorem 9 Case 3: own previous state, right shape.
                components.append(own if message is REJECT else message)
            instances[start] = intern(tuple(components))
        # The instance opened t rounds ago has had its t + 1 exchanges:
        # it decides now, everywhere, and is retired.
        finished = instances.pop(round_number - self.config.t, None)
        if finished is not None and not self.has_decided():
            self._decide_fire(finished, round_number)
        if self.has_decided():
            instances.clear()  # once fired, everything can go

    def _decide_fire(self, state: Any, round_number: Round) -> None:
        """Fire iff the finished instance's EIG decision is 1.

        The default is 0, so deciding 1 takes a strict majority of
        relayed GOs at the root — at least one of them correct.
        """
        decision = eig_byzantine_decision(
            state,
            self.config.n,
            self.config.t,
            process_id=0,  # does not enter the resolution
            default=0,
            alphabet=(0, 1),
        )
        if decision == 1:
            self.decide("FIRE", round_number)

    def snapshot(self) -> Any:
        return {
            "go_round": self.go_round,
            "live_instances": sorted(self._instances),
            "decision": self.decision,
        }


def firing_squad_factory():
    """A run_protocol factory for the Byzantine firing squad."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> FiringSquadProcess:
        return FiringSquadProcess(process_id, config, input_value)

    return factory


def fire_deadline(go_round: Round, t: int) -> Round:
    """Latest firing round when all correct GOs arrive by ``go_round``:
    that round's instance decides after its ``t + 1`` exchanges."""
    return go_round + t + 1 - 1  # instance at r finishes at r + t
