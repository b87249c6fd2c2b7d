"""Full execution traces.

A trace records every delivered envelope and every correct processor's
post-round state snapshot.  Traces are what a simulation check
consumes to verify, round by round, that
``f_p(state(p, i, E')) = state(p, r(i), E)``.

Traces are optional (they hold the entire message history, which for
full-information protocols is exponential) and are enabled per run via
:func:`repro.runtime.engine.run_protocol`.  A trace lives in memory
and pickles at full fidelity with the rest of the result (minus its
live processes, which may hold closures).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.runtime.message import Envelope
from repro.types import ProcessId, Round


class ExecutionTrace:
    """Accumulates envelopes and state snapshots per round."""

    def __init__(self) -> None:
        self._envelopes: List[Envelope] = []
        self._snapshots: Dict[Round, Dict[ProcessId, Any]] = {}

    def record_envelope(self, envelope: Envelope) -> None:
        """Record one delivered message."""
        self._envelopes.append(envelope)

    def record_snapshot(
        self, round_number: Round, process_id: ProcessId, state: Any
    ) -> None:
        """Record a correct processor's state after its round-``r`` change."""
        self._snapshots.setdefault(round_number, {})[process_id] = state

    # -- queries ----------------------------------------------------------

    @property
    def envelopes(self) -> List[Envelope]:
        """All recorded envelopes, in delivery order."""
        return list(self._envelopes)

    def messages_in_round(self, round_number: Round) -> List[Envelope]:
        """Envelopes delivered in one round."""
        return [
            envelope
            for envelope in self._envelopes
            if envelope.round_number == round_number
        ]

    def messages_from(self, sender: ProcessId) -> List[Envelope]:
        """Envelopes sent by one processor, across all rounds."""
        return [
            envelope for envelope in self._envelopes if envelope.sender == sender
        ]

    def snapshot(self, round_number: Round, process_id: ProcessId) -> Any:
        """The recorded state of ``process_id`` after round ``round_number``.

        Returns ``None`` when no snapshot was recorded (e.g. the
        processor is faulty).
        """
        return self._snapshots.get(round_number, {}).get(process_id)

    def snapshots_in_round(self, round_number: Round) -> Dict[ProcessId, Any]:
        """All recorded snapshots for one round."""
        return dict(self._snapshots.get(round_number, {}))

    @property
    def rounds(self) -> List[Round]:
        """Rounds with at least one snapshot, ascending."""
        return sorted(self._snapshots)
