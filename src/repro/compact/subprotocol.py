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

**Who remembers what.**  A batch step is a pure function of the staged
inputs and the vote components received so far, and the avalanche
consensus condition exists to make correct processors' views the same;
so the state — vote matrix, parked columns, instances, encoders, the
quiet flag, reported subjects, rounds stepped and the next outgoing
votes — lives in a :class:`_BatchState` that nothing writes after the
step that made it, and an :class:`AgreementBatch` is one processor's
pointer into it.  Processors that stage the same input objects start at
one root; a step keys the round's components by sender identity (a
tuple's slots never change, and anything else is malformed whatever it
holds) and follows the current state's child for that key, so only the
first processor with a given view clones the state and steps it, and
correct senders that share a state send one vote tuple object.  A memo
entry keeps the components it was keyed on, so no ``id`` in a live key
is reused, and roots are held weakly, so states die with the processors
that point at them.  Components are read through ``tuple``'s own
``__len__`` and ``__iter__``: a subclass's overrides never run.  The
expansion view and the next payload of a processor's batch states are
memoised on the newest of them (:func:`shared`), so each is built once
per distinct history and dies with the states; since the view reads
``OUT`` off reported decisions, a step that finds one of those changed
raises.  So is a whole receive's step: correct receivers at the same
states get the same row of message objects except the faulty senders'
entries, and :func:`step_row` routes a row's votes to the batches and
steps them once per distinct row, keyed by the ids of its messages.
"""

from __future__ import annotations

import functools
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.obs.core as _obs
from repro.avalanche.coding import NULL_MESSAGE, NullEncoder
from repro.avalanche.protocol import AvalancheInstance, Thresholds
from repro.errors import ProtocolViolation
from repro.types import BOTTOM, ProcessId, SystemConfig, Value


@functools.lru_cache(maxsize=None)
def _null_votes(n: int) -> Tuple[Any, ...]:
    """The all-null vote tuple for ``n`` subjects, one object per ``n``.

    Every settled batch of every processor sends this same object, so
    a receiver recognises "nothing changed" by identity.
    """
    return (NULL_MESSAGE,) * n


def _copied(instances: List[Any]) -> List[Any]:
    """Shallow twins of instances or encoders (their state is flat)."""
    twins = []
    for instance in instances:
        twin = object.__new__(type(instance))
        twin.__dict__ = instance.__dict__.copy()
        twins.append(twin)
    return twins


class _BatchState:
    """One batch history's state, shared by every processor that has it.

    Nothing writes it after :meth:`successor` (or :meth:`root`)
    returned it; ``children`` only grows, by memo entries
    ``key -> (components, state)``, and ``shared`` by :func:`shared`'s.
    """

    __slots__ = (
        "instances", "encoders", "rows", "parked", "quiet", "reported",
        "rounds_stepped", "outgoing", "decided", "tallied", "children",
        "shared", "__weakref__",
    )

    @classmethod
    def root(
        cls, config: SystemConfig, staged: Tuple[Any, ...], thresholds: Thresholds
    ) -> "_BatchState":
        n = config.n
        state = cls()
        state.instances = [
            AvalancheInstance(config, input_value=value, thresholds=thresholds)
            for value in staged
        ]
        state.encoders = [NullEncoder() for _ in range(n)]
        # The decoded vote matrix: ``row[s]`` of subject ``q``'s row is
        # the vote sender ``s`` currently holds for ``q`` — its last
        # real (non-null) transmission, which is what a null decodes
        # to.  BOTTOM doubles as "never sent": a null from a silent
        # sender decodes to bottom either way.
        state.rows = [[BOTTOM] * n for _ in range(n)]
        # Columns of senders whose latest component was malformed or
        # missing: they read bottom for as long as that lasts, while
        # the remembered votes wait here for the sender's next
        # well-formed component (whose nulls still decode to them).
        state.parked = {}
        # Set once the encoders return all nulls, cleared when a VAL is
        # re-bound: until then each encoder would compare the same
        # objects as last time and answer null again.
        state.quiet = False
        state.reported = frozenset()
        state.rounds_stepped = 0
        state.decided = []
        state.tallied = 0
        state.children = {}
        state.shared = {}
        state.outgoing = state._encode()
        return state

    def stepped(self, components: List[Any]) -> "_BatchState":
        """The state one round's components lead to, stepped on a memo
        miss only.  Keyed by identity: a tuple's slots never change, and
        anything else is malformed, whatever it holds."""
        key = tuple(map(id, components))
        entry = self.children.get(key)
        if entry is None:
            entry = self.children[key] = (components, self.successor(components))
        return entry[1]

    def successor(self, components: List[Any]) -> "_BatchState":
        """This state stepped by one round's components, on a clone."""
        n = len(self.rows)
        state = _BatchState()
        state.instances = _copied(self.instances)
        state.encoders = self.encoders  # _encode copies before writing
        rows = state.rows = [row[:] for row in self.rows]
        parked = state.parked = dict(self.parked)  # lists never written
        state.quiet = self.quiet
        reported = self.reported
        state.rounds_stepped = self.rounds_stepped + 1
        state.children = {}
        state.shared = {}
        null_votes = _null_votes(n)
        everything = range(n)
        dirty = set()
        for s_index, component in enumerate(components):
            if component is not null_votes and not (
                issubclass(type(component), tuple)
                and tuple.__len__(component) == n
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
                for index, vote in enumerate(tuple.__iter__(component)):
                    if vote is not NULL_MESSAGE:
                        rows[index][s_index] = vote
                        dirty.add(index)
        settled = state.rounds_stepped > 2
        tallied = 0
        decided: List[Tuple[int, Value]] = []
        for index, instance in enumerate(state.instances):
            if settled and index not in dirty:
                # Same votes as in its previous round > 1 step: the
                # same outcome, so only the round number moves.
                instance.rounds_completed += 1
                continue
            tallied += 1
            before, decision = instance.val, instance.decision
            instance.step(rows[index])
            if instance.val is not before:
                state.quiet = False
            if index in reported:
                if instance.decision is not decision:
                    # OUT entries are read off reported decisions, so
                    # one that moved would rewrite an agreed CORE.
                    raise ProtocolViolation(
                        f"subject {index + 1}'s avalanche decision changed "
                        f"after it was reported"
                    )
            elif instance.has_decided():
                reported = reported | {index}
                decided.append((index, instance.decision))
        state.reported = reported
        state.decided = decided
        state.tallied = tallied
        state.outgoing = state._encode()
        return state

    def _encode(self) -> Tuple[Any, ...]:
        """The null-encoded votes this state sends; copies the encoders
        it consults, which an earlier state may share."""
        null_votes = _null_votes(len(self.rows))
        if self.quiet:
            return null_votes
        self.encoders = _copied(self.encoders)
        votes = tuple(
            encoder.encode(instance.val)
            for encoder, instance in zip(self.encoders, self.instances)
        )
        if all(vote is NULL_MESSAGE for vote in votes):
            self.quiet = True
            return null_votes
        return votes


#: Roots by ``(config, boundary, thresholds, ids of the staged inputs)``;
#: a root holds its inputs, so a live key's ids are its own.
_ROOTS: "weakref.WeakValueDictionary[Any, _BatchState]" = (
    weakref.WeakValueDictionary()
)


def shared(
    batches: Iterable["AgreementBatch"], key: Any, make: Callable[[], Any]
) -> Any:
    """What every processor at these batch states has in common.

    ``batches`` are one processor's, one per boundary, the newest last.
    The answer (its expansion view, its next payload) is memoised on the
    newest state under ``key`` and the earlier states, so it dies with
    them; ``make()`` builds it on a miss, and whenever there is no batch.
    """
    states = [batch._state for batch in batches]
    if not states:
        return make()
    newest = states.pop()
    key = (key, *states)
    answer = newest.shared.get(key)
    if answer is None:
        answer = newest.shared[key] = make()
    return answer


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
        self._subjects = config.process_ids
        staged = tuple(inputs.get(subject, BOTTOM) for subject in self._subjects)
        key = (config, boundary, thresholds, tuple(map(id, staged)))
        state: Optional[_BatchState] = _ROOTS.get(key)
        if state is None:
            state = _ROOTS[key] = _BatchState.root(config, staged, thresholds)
        self._state = state

    @property
    def instances(self) -> Dict[ProcessId, AvalancheInstance]:
        """Per subject, this processor's instance (shared, read only)."""
        return dict(zip(self._subjects, self._state.instances))

    @property
    def rounds_stepped(self) -> int:
        return self._state.rounds_stepped

    # -- sending ------------------------------------------------------------

    def outgoing_votes(self) -> Tuple[Any, ...]:
        """This round's null-encoded votes, one slot per subject."""
        return self._state.outgoing

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
        value) pairs newly decided in this step.  A processor steps
        all its batches at once, by one received row (:func:`step_row`).
        """
        state = self._state = self._state.stepped(
            list(map(votes_by_sender.get, self._subjects))
        )
        return [(self._subjects[index], value) for index, value in state.decided]

    def decided_subjects(self) -> Tuple[ProcessId, ...]:
        """Subjects whose instance has decided at this processor."""
        return tuple(self._subjects[index] for index in sorted(self._state.reported))


#: Fresh ``OUT[b][q]`` entries: ``(boundary, subject, decision)``.
Fresh = List[Tuple[int, ProcessId, Value]]


def step_row(
    batches: Dict[int, AgreementBatch],
    row: Tuple[Any, ...],
    route: Callable[[Tuple[Any, ...], int], List[Any]],
) -> Fresh:
    """Step one processor's batches (by boundary, the newest last) by
    one received row; returns the fresh ``OUT`` entries.

    ``row`` is the round's messages in process-id order and
    ``route(row, boundary)`` their vote components for the batch of
    ``boundary``.  Correct processors at the same batch states receive
    the same message objects but from faulty senders, so the outcome —
    every batch's successor state, the fresh entries and the tally
    counts — is memoised through :func:`shared` under the ids of the
    row's messages, and the entry holds the row, so no id in a live key
    is reused.  A hit applies it exactly as a miss does.
    """
    _, states, fresh, tallied, skipped = shared(
        batches.values(), tuple(map(id, row)),
        lambda: _row_step(batches, row, route),
    )
    for batch, state in zip(batches.values(), states):
        batch._state = state
    observer = _obs.ACTIVE
    if observer is not None:
        observer.count("compact.avalanche.tallied", tallied)
        observer.count("compact.avalanche.skipped", skipped)
    return fresh


def _row_step(
    batches: Dict[int, AgreementBatch],
    row: Tuple[Any, ...],
    route: Callable[[Tuple[Any, ...], int], List[Any]],
) -> Tuple[Tuple[Any, ...], List[_BatchState], Fresh, int, int]:
    """:func:`step_row`'s memo entry: ``(row, successor states, fresh
    entries, instances tallied, instances skipped)``."""
    states = []
    fresh: Fresh = []
    tallied = 0
    for boundary, batch in batches.items():
        state = batch._state.stepped(route(row, boundary))
        states.append(state)
        tallied += state.tallied
        subjects = batch._subjects
        fresh.extend(
            (boundary, subjects[index], value) for index, value in state.decided
        )
    return row, states, fresh, tallied, len(row) * len(states) - tallied
