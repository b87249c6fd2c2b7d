"""The dense avalanche batch step, kept as a test-only oracle.

:class:`ReferenceAgreementBatch` is
:class:`repro.compact.subprotocol.AgreementBatch` as it stood before it
became delta-driven, moved here unchanged: every round decodes all
``n * n`` vote slots against ``_last_votes``, hands every instance its
full vote row (or the inlined all-bottom step) and consults every
encoder.  It is the round-by-round reference the production batch must
equal — returned decisions, every instance's ``(val, decision,
decision_round, rounds_completed)``, ``decided_subjects()`` and the next
``outgoing_votes()`` — whatever a Byzantine sender does
(``tests/compact/test_agreement_batch_equivalence.py``).

:class:`NullDecoder`, the receiver half of the Section 4 coding that the
batch inlined long ago, lives here too: nothing in ``src`` calls it, and
``tests/avalanche/test_coding.py`` still states the coding's round trip
with it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.avalanche.coding import NULL_MESSAGE, NullEncoder
from repro.avalanche.protocol import AvalancheInstance, Thresholds
from repro.types import BOTTOM, ProcessId, SystemConfig, Value


class NullDecoder:
    """Receiver-side state: expands null back to the sender's last value.

    Tracks one remembered message per sender.  A null from a sender
    that has never sent a real message decodes to :data:`BOTTOM` —
    only a faulty sender can produce that, and bottom is exactly how
    the protocols treat garbage.
    """

    def __init__(self) -> None:
        self._last: Dict[ProcessId, Any] = {}

    def decode(self, sender: ProcessId, message: Any) -> Any:
        """Expand ``message`` from ``sender``; remembers real values."""
        if message is NULL_MESSAGE:
            return self._last.get(sender, BOTTOM)
        self._last[sender] = message
        return message


class _Unshared:
    """A dense batch's stand-in for a shared batch state: a fresh one per
    step, so ``subprotocol.shared`` (and with it the protocol's
    ``step_row`` memo) shares nothing between processors or rounds.
    :meth:`stepped` steps the dense batch itself, and the state it
    returns reports that step's decisions as a shared state would."""

    def __init__(self, batch: "ReferenceAgreementBatch", decided=()) -> None:
        self.shared: Dict[Any, Any] = {}
        self.batch = batch
        #: ``(subject index, decision)`` pairs of the step that made it.
        self.decided = decided
        #: The dense step runs every instance.
        self.tallied = batch.config.n

    def stepped(self, components: List[Any]) -> "_Unshared":
        batch = self.batch
        batch.step(dict(zip(batch.config.process_ids, components)))
        return batch._state


class ReferenceAgreementBatch:
    """``n`` avalanche instances for one block boundary, stepped densely."""

    def __init__(
        self,
        config: SystemConfig,
        boundary: int,
        inputs: Dict[ProcessId, Any],
        thresholds: Thresholds,
    ):
        self.config = config
        self.boundary = boundary
        self.instances: Dict[ProcessId, AvalancheInstance] = {
            subject: AvalancheInstance(
                config,
                input_value=inputs.get(subject, BOTTOM),
                thresholds=thresholds,
            )
            for subject in config.process_ids
        }
        self._encoders: Dict[ProcessId, NullEncoder] = {
            subject: NullEncoder() for subject in config.process_ids
        }
        # Receiver-side null-decoding state, one row per sender in
        # ``process_ids`` order: ``row[subject_index]`` is the last
        # real (non-null) vote that sender transmitted for the subject.
        # BOTTOM doubles as "never sent", matching NullDecoder — a null
        # from a silent sender decodes to bottom either way.
        self._last_votes: List[List[Any]] = [
            [BOTTOM] * config.n for _ in config.process_ids
        ]
        self._reported: set = set()
        self.rounds_stepped = 0
        self._subjects = config.process_ids
        self._state = _Unshared(self)

    def outgoing_votes(self) -> Tuple[Any, ...]:
        """This round's null-encoded votes, one slot per subject."""
        return tuple(
            self._encoders[subject].encode(self.instances[subject].message())
            for subject in self.config.process_ids
        )

    def step(
        self, votes_by_sender: Dict[ProcessId, Any]
    ) -> List[Tuple[ProcessId, Value]]:
        """Feed one round of received vote components to the instances."""
        n = self.config.n
        self.rounds_stepped += 1
        decided: List[Tuple[ProcessId, Value]] = []
        process_ids = self.config.process_ids
        # A malformed component (not an n-tuple) contributes bottom for
        # every subject; `live` tracks subjects that received anything
        # other than bottom this round.
        votes_by_subject: List[List[Any]] = [[BOTTOM] * n for _ in range(n)]
        live = [False] * n
        for s_index, sender in enumerate(process_ids):
            component = votes_by_sender.get(sender, BOTTOM)
            if not (isinstance(component, tuple) and len(component) == n):
                continue
            last_row = self._last_votes[s_index]
            for index in range(n):
                vote = component[index]
                if vote is NULL_MESSAGE:
                    vote = last_row[index]
                else:
                    last_row[index] = vote
                if vote is not BOTTOM:
                    votes_by_subject[index][s_index] = vote
                    live[index] = True
        for index, subject in enumerate(process_ids):
            instance = self.instances[subject]
            if live[index]:
                instance.step(votes_by_subject[index])
            else:
                # All-bottom round, inlined: an empty tally adopts and
                # decides nothing, and in round 1 resets VAL to bottom
                # (count 0 is below every quorum).
                instance.rounds_completed += 1
                if instance.rounds_completed == 1:
                    instance.val = BOTTOM
            if instance.has_decided() and subject not in self._reported:
                self._reported.add(subject)
                decided.append((subject, instance.decision))
        self._state = _Unshared(self, [
            (process_ids.index(subject), value) for subject, value in decided
        ])
        return decided

    def decided_subjects(self) -> Tuple[ProcessId, ...]:
        """Subjects whose instance has decided at this processor."""
        return tuple(sorted(self._reported))
