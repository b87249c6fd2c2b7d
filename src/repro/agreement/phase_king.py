"""Phase King and Phase Queen: simple polynomial baselines.

Two classic rotating-coordinator protocols (Berman, Garay, Perry) for
*binary* Byzantine agreement, included as the polynomial-communication
comparison class the paper positions itself in.  Both run ``t + 1``
phases so that at least one phase has a correct coordinator.

**Phase King** (``n >= 3t + 1``, 3 rounds per phase):

1. broadcast your value; count votes per bit;
2. broadcast a *proposal* for any bit you saw ``n - t`` times (else a
   null proposal); adopt a bit proposed at least ``t + 1`` times (at
   most one bit can be proposed by any correct processor, since two
   ``n - t`` vote quorums would share a correct voter);
3. the phase's king broadcasts its value; processors whose adopted bit
   had fewer than ``n - t`` proposals defer to the king.

Persistence: a unanimous correct population stays unanimous through
any phase (everyone proposes the bit, sees ``>= n - t`` proposals, and
ignores the king).  A phase with a correct king ends in unanimity:
either some correct processor saw ``n - t`` proposals for ``b`` — then
at least ``n - 2t >= t + 1`` correct proposed ``b``, so *every*
correct processor (the king included) adopted ``b`` — or nobody was
strong and everyone takes the king's bit.

**Phase Queen** (``n >= 4t + 1``, 2 rounds per phase):

1. broadcast your value; prefer the majority bit, marking yourself
   *strong* if it reached ``n - t`` votes;
2. the queen broadcasts its preference; weak processors adopt it.

If any correct processor is strong on ``b``, then at least ``n - 2t``
correct processors hold ``b``, so every correct processor counts at
least ``n - 2t > 2t`` votes for ``b`` and at most ``2t`` for the other
bit — the queen's preference is ``b`` too, and the phase ends
unanimous.  ``n > 4t`` is exactly what makes ``n - 2t > 2t``.

Both protocols decide after their last phase; rounds are ``3(t + 1)``
and ``2(t + 1)`` respectively, with ``O(1)``-bit messages.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import ProcessId, Round, SystemConfig, Value

# The round-2 "no proposal" marker of Phase King.
_NO_PROPOSAL = "no-proposal"


def _as_bit(message: Any) -> Optional[int]:
    """Parse a received payload as a bit; None for anything else."""
    if message in (0, 1) and not isinstance(message, bool):
        return int(message)
    return None


#: Protoflow taint: every reception is parsed through the bit filter.
TAINT_SANITIZERS = {
    "_as_bit": (
        "accepts only the literals 0 and 1 (bools excluded); every "
        "vote count and king/queen proposal downstream is over parsed "
        "bits compared against n - t / n/2 + t quorums"
    ),
}


def phase_king_rounds(t: int) -> int:
    """Total rounds: ``t + 1`` phases of 3 rounds."""
    return 3 * (t + 1)


def phase_queen_rounds(t: int) -> int:
    """Total rounds: ``t + 1`` phases of 2 rounds."""
    return 2 * (t + 1)


class PhaseKingProcess(Process):
    """Binary Phase King for ``n >= 3t + 1``."""

    def __init__(
        self, process_id: ProcessId, config: SystemConfig, input_value: Value
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"phase king needs n >= 3t+1; got n={config.n}, t={config.t}"
            )
        bit = _as_bit(input_value)
        if bit is None:
            raise ConfigurationError(f"phase king is binary; got {input_value!r}")
        self.value = bit
        self._proposal_support = 0

    # Rounds are numbered 1..3(t+1); phase p occupies rounds 3p-2..3p
    # and its king is processor p.

    def _phase(self, round_number: Round) -> int:
        return (round_number - 1) // 3 + 1

    def _step(self, round_number: Round) -> int:
        return (round_number - 1) % 3 + 1

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        step = self._step(round_number)
        if step == 1:
            return broadcast(self.value, self.config)
        if step == 2:
            return broadcast(self._proposal, self.config)
        king = self._phase(round_number)
        if king == self.process_id:
            return broadcast(self.value, self.config)
        return {}

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        config = self.config
        step = self._step(round_number)
        if step == 1:
            counts = [0, 0]
            for sender in config.process_ids:
                bit = _as_bit(incoming[sender])
                if bit is not None:
                    counts[bit] += 1
            strong = [bit for bit in (0, 1) if counts[bit] >= config.n - config.t]
            self._proposal = strong[0] if strong else _NO_PROPOSAL
        elif step == 2:
            proposals = [0, 0]
            for sender in config.process_ids:
                bit = _as_bit(incoming[sender])
                if bit is not None:
                    proposals[bit] += 1
            # At most one bit can reach t+1 correct proposers.
            leader = 0 if proposals[0] >= proposals[1] else 1
            if proposals[leader] >= config.t + 1:
                self.value = leader
            self._proposal_support = proposals[leader]
        else:
            king = self._phase(round_number)
            king_bit = _as_bit(incoming[king])
            if self._proposal_support < config.n - config.t:
                self.value = king_bit if king_bit is not None else 0
            if self._phase(round_number) == config.t + 1:
                self.decide(self.value, round_number)

    def snapshot(self) -> Any:
        return {"value": self.value, "decision": self.decision}


class PhaseQueenProcess(Process):
    """Binary Phase Queen for ``n >= 4t + 1``."""

    def __init__(
        self, process_id: ProcessId, config: SystemConfig, input_value: Value
    ):
        super().__init__(process_id, config)
        if not config.requires_fast_quorum():
            raise ConfigurationError(
                f"phase queen needs n >= 4t+1; got n={config.n}, t={config.t}"
            )
        bit = _as_bit(input_value)
        if bit is None:
            raise ConfigurationError(f"phase queen is binary; got {input_value!r}")
        self.value = bit
        self._strong = False

    def _phase(self, round_number: Round) -> int:
        return (round_number - 1) // 2 + 1

    def _step(self, round_number: Round) -> int:
        return (round_number - 1) % 2 + 1

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        if self._step(round_number) == 1:
            return broadcast(self.value, self.config)
        queen = self._phase(round_number)
        if queen == self.process_id:
            return broadcast(self.value, self.config)
        return {}

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        config = self.config
        if self._step(round_number) == 1:
            counts = [0, 0]
            for sender in config.process_ids:
                bit = _as_bit(incoming[sender])
                if bit is not None:
                    counts[bit] += 1
            self.value = 0 if counts[0] >= counts[1] else 1
            self._strong = counts[self.value] >= config.n - config.t
        else:
            queen = self._phase(round_number)
            queen_bit = _as_bit(incoming[queen])
            if not self._strong:
                self.value = queen_bit if queen_bit is not None else 0
            if queen == config.t + 1:
                self.decide(self.value, round_number)

    def snapshot(self) -> Any:
        return {"value": self.value, "decision": self.decision}


def phase_king_factory():
    """A run_protocol factory for Phase King."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> PhaseKingProcess:
        return PhaseKingProcess(process_id, config, input_value)

    return factory


def phase_queen_factory():
    """A run_protocol factory for Phase Queen."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> PhaseQueenProcess:
        return PhaseQueenProcess(process_id, config, input_value)

    return factory
