"""Failure-by-omission faults.

An omission-faulty processor runs its protocol correctly but some of
its messages are lost: each message it sends is independently dropped
with probability ``drop_probability`` (send omissions).  It never lies
— this sits strictly between fail-stop and Byzantine, and is the other
benign model named in Section 1.

As with :class:`repro.adversary.crash.CrashAdversary`, ghost instances
of the real protocol produce the honest messages; the adversary then
drops a random subset.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.adversary.base import GhostAdversary, GhostFactory
from repro.types import ProcessId, Round


class OmissionAdversary(GhostAdversary):
    """Honest ghosts with randomly dropped outgoing messages."""

    def __init__(
        self,
        faulty_ids: Iterable[ProcessId],
        factory: GhostFactory,
        drop_probability: float = 0.3,
    ):
        super().__init__(faulty_ids, factory)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {drop_probability}"
            )
        self.drop_probability = drop_probability

    def _deliver(
        self, round_number: Round, sender: ProcessId, honest: Dict[ProcessId, Any]
    ) -> Dict[ProcessId, Any]:
        return {
            receiver: honest[receiver]
            for receiver in sorted(honest)
            if self.rng.random() >= self.drop_probability
        }
