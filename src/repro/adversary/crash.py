"""Fail-stop (crash) faults.

A crashed processor follows its protocol faithfully until its crash
round, during which it may reach only a prefix of the recipients of
its final broadcast (the classic "crash mid-send" semantics), and is
silent forever after.

To "follow the protocol faithfully" the adversary runs a **ghost**
instance of the real protocol for each faulty processor
(:class:`repro.adversary.base.GhostAdversary`); the ghost's
``outgoing`` is what gets (partially) delivered.  This is the benign
fault model in which the paper's transformation incurs no round
overhead (Section 1), exercised by experiment E8.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.adversary.base import GhostAdversary, GhostFactory
from repro.types import ProcessId, Round


class CrashAdversary(GhostAdversary):
    """Runs real protocol logic for faulty ids, crashing them on cue.

    Parameters
    ----------
    crash_rounds:
        Map from faulty processor id to the round in which it crashes.
        In that round the processor's messages reach only recipients
        with ids up to a cut point; afterwards it is silent.
    factory:
        The same process factory handed to the engine, used to build
        ghost instances.
    cut_fraction:
        Fraction (0..1) of recipients, in id order, reached during the
        crash round.  0 means a clean crash before sending; 1 means the
        crash lands after a complete broadcast.
    """

    def __init__(
        self,
        crash_rounds: Mapping[ProcessId, Round],
        factory: GhostFactory,
        cut_fraction: float = 0.5,
    ):
        super().__init__(crash_rounds.keys(), factory)
        if not 0.0 <= cut_fraction <= 1.0:
            raise ValueError(f"cut_fraction must be in [0, 1], got {cut_fraction}")
        self.crash_rounds = dict(crash_rounds)
        self._cut_fraction = cut_fraction

    def _steps(self, process_id: ProcessId, round_number: Round) -> bool:
        return round_number <= self.crash_rounds[process_id]

    def _deliver(
        self, round_number: Round, sender: ProcessId, honest: Dict[ProcessId, Any]
    ) -> Dict[ProcessId, Any]:
        if round_number < self.crash_rounds[sender]:
            return honest
        # Crash round: deliver to an id-ordered prefix of recipients.
        recipients = sorted(honest)
        cut = int(round(len(recipients) * self._cut_fraction))
        return {receiver: honest[receiver] for receiver in recipients[:cut]}
