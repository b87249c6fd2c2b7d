"""Subprotocol machinery (Section 5.2).

At the end of each block the compact protocol starts ``n`` avalanche
agreement instances — one per sender ``q``, with each processor's
input being the (validated) end-of-block CORE it received from ``q``,
or bottom if that message was unusable.  The instances run in parallel
with the main protocol: if ``x`` subprotocols are active, round
messages are ``(x + 1)``-tuples, one component per subprotocol plus
one for the main protocol.  Decisions become available at the start of
the local-state-change portion of the round in which they occur.

:class:`AgreementBatch` bundles the ``n`` instances of one block
boundary, applies the Section 4 null-message coding to their votes on
the sending side, and decodes peers' votes on the receiving side.

**A round costs what changed in it.**  Batches are never retired
(Lemma 7 needs the propagation window open), and the null coding makes
a settled instance cost 0 bits; the batch makes it cost no tallies
either.  It keeps the decoded ``n x n`` vote matrix across rounds, so
a round only writes the cells whose sender transmitted a non-null
vote, and only re-tallies the subjects whose row changed.  The skip
rule: an instance given the same votes as in its previous step repeats
that step's outcome — the same answer and count, so ``VAL`` is
re-assigned the value it already holds and a decide quorum was already
acted on — *provided both steps run the round > 1 rule*.  Round 1
adopts-or-resets at a different quorum, so "same votes as last round"
is a no-op only from an instance's third step on; the first two steps
always tally.  The worst case is the dense cost: at most ``t``
Byzantine senders re-voting every subject every round dirty every row.
``tests/compact/reference_agreement_batch.py`` keeps the dense step as
the oracle this one is compared against round by round.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Set, Tuple

import repro.obs.core as _obs
from repro.avalanche.coding import NULL_MESSAGE, NullEncoder
from repro.avalanche.protocol import AvalancheInstance, Thresholds
from repro.types import BOTTOM, ProcessId, SystemConfig, Value


@functools.lru_cache(maxsize=None)
def _null_votes(n: int) -> Tuple[Any, ...]:
    """The all-null vote tuple for ``n`` subjects, one object per ``n``.

    Every settled batch of every processor sends this same object, so
    a receiver recognises "nothing changed" by identity.
    """
    return (NULL_MESSAGE,) * n


class AgreementBatch:
    """``n`` avalanche instances for one block boundary, with coding."""

    def __init__(
        self,
        config: SystemConfig,
        boundary: int,
        inputs: Dict[ProcessId, Any],
        thresholds: Thresholds,
    ):
        """
        Parameters
        ----------
        boundary:
            The block number ``b + 1`` whose expansion function these
            agreements will feed (``OUT[., b + 1]`` in the paper).
        inputs:
            Per subject processor ``q``, this processor's input to the
            instance agreeing on ``q``'s end-of-block CORE — the
            validated message received from ``q`` in the rebroadcast
            round, or bottom.
        """
        self.config = config
        self.boundary = boundary
        n = config.n
        self._subjects = config.process_ids
        self.instances: Dict[ProcessId, AvalancheInstance] = {
            subject: AvalancheInstance(
                config,
                input_value=inputs.get(subject, BOTTOM),
                thresholds=thresholds,
            )
            for subject in self._subjects
        }
        # Instances, encoders and matrix rows are indexed by subject
        # position in ``process_ids`` order.
        self._instances: List[AvalancheInstance] = list(self.instances.values())
        self._encoders: List[NullEncoder] = [NullEncoder() for _ in range(n)]
        # The decoded vote matrix, kept across rounds: ``row[s]`` of
        # subject ``q``'s row is the vote sender ``s`` currently holds
        # for ``q`` — its last real (non-null) transmission, which is
        # what a null decodes to.  BOTTOM doubles as "never sent": a
        # null from a silent sender decodes to bottom either way.
        self._rows: List[List[Any]] = [[BOTTOM] * n for _ in range(n)]
        # Columns of senders whose latest component was malformed or
        # missing: they read bottom for as long as that lasts, while
        # the remembered votes wait here for the sender's next
        # well-formed component (whose nulls still decode to them).
        self._parked: Dict[int, List[Any]] = {}
        self._null_votes = _null_votes(n)
        # Set once the encoders return all nulls, cleared when a VAL is
        # re-bound: until then each encoder would compare the same
        # objects as last time and answer null again.
        self._quiet = False
        self._reported: Set[ProcessId] = set()
        self.rounds_stepped = 0

    # -- sending ------------------------------------------------------------

    def outgoing_votes(self) -> Tuple[Any, ...]:
        """This round's null-encoded votes, one slot per subject."""
        if self._quiet:
            return self._null_votes
        votes = tuple(
            encoder.encode(instance.val)
            for encoder, instance in zip(self._encoders, self._instances)
        )
        if all(vote is NULL_MESSAGE for vote in votes):
            self._quiet = True
            return self._null_votes
        return votes

    # -- receiving -----------------------------------------------------------

    def step(
        self, votes_by_sender: Dict[ProcessId, Any]
    ) -> List[Tuple[ProcessId, Value]]:
        """Feed one round of received vote components to the instances.

        ``votes_by_sender[s]`` is the raw component from sender ``s``:
        expected to be an ``n``-tuple of (possibly null-coded) votes,
        but arbitrary garbage from a faulty sender is tolerated — a
        malformed or missing component contributes bottom votes for
        every subject, for this round only.  Returns the (subject,
        value) pairs newly decided in this step.
        """
        n = self.config.n
        self.rounds_stepped += 1
        rows = self._rows
        parked = self._parked
        null_votes = self._null_votes
        everything = range(n)
        dirty: Set[int] = set()
        for s_index, sender in enumerate(self._subjects):
            component = votes_by_sender.get(sender)
            if component is not null_votes and not (
                isinstance(component, tuple) and len(component) == n
            ):
                if s_index not in parked:
                    parked[s_index] = [row[s_index] for row in rows]
                    for row in rows:
                        row[s_index] = BOTTOM
                    dirty.update(everything)
                continue
            if s_index in parked:
                for row, vote in zip(rows, parked.pop(s_index)):
                    row[s_index] = vote
                dirty.update(everything)
            if component is not null_votes:
                for index, vote in enumerate(component):
                    if vote is not NULL_MESSAGE:
                        rows[index][s_index] = vote
                        dirty.add(index)
        settled = self.rounds_stepped > 2
        tallied = 0
        decided: List[Tuple[ProcessId, Value]] = []
        for index, instance in enumerate(self._instances):
            if settled and index not in dirty:
                # Same votes as in its previous round > 1 step: the
                # same outcome, so only the round number moves.
                instance.rounds_completed += 1
                continue
            tallied += 1
            before = instance.val
            instance.step(rows[index])
            if instance.val is not before:
                self._quiet = False
            if instance.has_decided():
                subject = self._subjects[index]
                if subject not in self._reported:
                    self._reported.add(subject)
                    decided.append((subject, instance.decision))
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count("compact.avalanche.tallied", tallied)
            observer.count("compact.avalanche.skipped", n - tallied)
        return decided

    def decided_subjects(self) -> Tuple[ProcessId, ...]:
        """Subjects whose instance has decided at this processor."""
        return tuple(sorted(self._reported))
