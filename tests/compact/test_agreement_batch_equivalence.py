"""The delta-driven batch equals the dense oracle, round by round.

``AgreementBatch`` only touches the vote cells that changed and only
re-tallies the instances whose row changed;
``reference_agreement_batch.ReferenceAgreementBatch`` decodes and
tallies everything every round.  Both are driven with the same
schedules here — scripted edge cases, seeded little systems of correct
processors under hostile senders, and hypothesis-drawn garbage — and
after *every* round the returned decisions, every instance's
``(val, decision, decision_round, rounds_completed)``,
``decided_subjects()`` and the next ``outgoing_votes()`` must be the
same, down to the type of each value (``True`` is not ``1``).
"""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.avalanche.coding import NULL_MESSAGE
from repro.avalanche.fast import fast_thresholds
from repro.avalanche.protocol import standard_thresholds
from repro.compact.subprotocol import AgreementBatch
from repro.types import BOTTOM, SystemConfig
from tests.compact.reference_agreement_batch import ReferenceAgreementBatch


def typed(value):
    """``value`` with every scalar's type attached (``True`` != ``1``)."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [typed(item) for item in value])
    return (type(value).__name__, value)


def state(batch):
    return [
        (
            subject,
            typed(instance.val),
            typed(instance.decision),
            instance.decision_round,
            instance.rounds_completed,
        )
        for subject, instance in batch.instances.items()
    ]


class Pair:
    """One processor's batch, twice: production and oracle."""

    def __init__(self, config, inputs, thresholds):
        self.fast = AgreementBatch(config, 2, inputs, thresholds)
        self.dense = ReferenceAgreementBatch(config, 2, inputs, thresholds)
        self.check()

    def outgoing(self):
        votes = self.fast.outgoing_votes()
        assert typed(votes) == typed(self.dense.outgoing_votes())
        return votes

    def step(self, votes_by_sender):
        decided = self.fast.step(dict(votes_by_sender))
        assert typed(decided) == typed(self.dense.step(dict(votes_by_sender)))
        self.check()
        return decided

    def check(self):
        assert state(self.fast) == state(self.dense)
        assert self.fast.decided_subjects() == self.dense.decided_subjects()
        assert self.fast.rounds_stepped == self.dense.rounds_stepped


def run_schedule(config, inputs, thresholds, schedule):
    """Drive one pair through ``schedule``; a round may be a callable
    taking the pair's own outgoing votes (for echoing them back)."""
    pair = Pair(config, inputs, thresholds)
    for round_votes in schedule:
        own = pair.outgoing()
        if callable(round_votes):
            round_votes = round_votes(own)
        pair.step(round_votes)
    pair.outgoing()
    return pair


@pytest.fixture
def config():
    return SystemConfig(n=4, t=1)


@pytest.fixture
def quorum(config):
    return standard_thresholds(config)


def nulls(n):
    return (NULL_MESSAGE,) * n


class WideVotes(NamedTuple):
    """A tuple subclass of width 4: a legal component shape."""

    a: object
    b: object
    c: object
    d: object


class TestScriptedEdges:
    def test_null_from_a_sender_that_never_sent(self, config, quorum):
        inputs = {q: "v" for q in config.process_ids}
        pair = run_schedule(config, inputs, quorum, [
            {1: nulls(4), 2: nulls(4), 3: nulls(4), 4: nulls(4)},
            lambda own: {1: own, 2: ("v",) * 4, 3: nulls(4), 4: nulls(4)},
            {s: nulls(4) for s in config.process_ids},
        ])
        assert pair.fast.decided_subjects() == ()

    def test_malformed_then_recovery_by_all_null(self, config, quorum):
        inputs = {q: "v" for q in config.process_ids}
        votes = ("v",) * 4
        pair = run_schedule(config, inputs, quorum, [
            {s: votes for s in config.process_ids},
            # Senders 3 and 4 turn malformed / go missing: with only two
            # votes left nothing reaches the decide quorum of 3 ...
            {1: nulls(4), 2: nulls(4), 3: "junk"},
            {1: nulls(4), 2: nulls(4), 3: ("short",), 4: 7},
            # ... until both come back with nothing but nulls, which
            # decode to the votes remembered from round 1.
            {s: nulls(4) for s in config.process_ids},
            {s: nulls(4) for s in config.process_ids},
        ])
        assert pair.fast.decided_subjects() == tuple(config.process_ids)
        assert {
            instance.decision_round
            for instance in pair.fast.instances.values()
        } == {4}

    def test_recovery_with_new_votes_overrides_the_memory(self, config, quorum):
        inputs = {q: "v" for q in config.process_ids}
        run_schedule(config, inputs, quorum, [
            {s: ("v",) * 4 for s in config.process_ids},
            {1: nulls(4), 2: nulls(4), 3: nulls(4), 4: None},
            {1: nulls(4), 2: nulls(4), 3: nulls(4),
             4: ("w", NULL_MESSAGE, BOTTOM, "w")},
            {s: nulls(4) for s in config.process_ids},
        ])

    def test_one_sender_revoting_every_round(self, config, quorum):
        inputs = {1: "a", 2: "a", 3: "b", 4: BOTTOM}
        schedule = [{s: ("a", "a", "b", BOTTOM) for s in (1, 2, 3)}]
        schedule[0][4] = ("b",) * 4
        for round_number in range(2, 9):
            flip = "a" if round_number % 2 else "b"
            schedule.append({
                1: nulls(4), 2: nulls(4), 3: nulls(4),
                4: (flip, f"x{round_number}", flip, round_number),
            })
        run_schedule(config, inputs, quorum, schedule)

    def test_more_than_three_non_null_votes_per_slot(self, config, quorum):
        inputs = {q: "v" for q in config.process_ids}
        schedule = [
            {s: (f"v{round_number}-{s}",) * 4 for s in config.process_ids}
            for round_number in range(1, 7)
        ]
        run_schedule(config, inputs, quorum, schedule)

    def test_unhashable_and_illegal_votes(self, config, quorum):
        inputs = {q: "v" for q in config.process_ids}
        junk = ([1, 2], {"k": 1}, None, 3.5)
        run_schedule(config, inputs, quorum, [
            {1: ("v",) * 4, 2: ("v",) * 4, 3: junk, 4: ([0],) * 4},
            {1: nulls(4), 2: nulls(4), 3: ([0],) * 4, 4: nulls(4)},
            {1: nulls(4), 2: nulls(4), 3: nulls(4), 4: junk},
            {s: ([9],) * 4 for s in config.process_ids},
            {s: nulls(4) for s in config.process_ids},
        ])

    def test_true_is_not_one(self, config, quorum):
        inputs = {q: 1 for q in config.process_ids}
        pair = run_schedule(config, inputs, quorum, [
            # Sender 1's True comes first in every row, so it is the
            # representative the tally returns: VAL becomes True.
            {1: (True,) * 4, 2: (1,) * 4, 3: (1,) * 4, 4: (1.0,) * 4},
            {s: nulls(4) for s in config.process_ids},
            {1: (1,) * 4, 2: nulls(4), 3: nulls(4), 4: nulls(4)},
            {s: nulls(4) for s in config.process_ids},
        ])
        assert all(
            instance.decision is True
            for instance in pair.fast.instances.values()
        )

    def test_a_value_unequal_to_itself_is_never_null_coded(self, config, quorum):
        """An encoder null-codes a repeat by ``==``; a NaN that two
        hostile senders get adopted keeps being re-sent, not nulled."""
        nan = float("nan")
        inputs = {q: BOTTOM for q in config.process_ids}
        quiet = {s: nulls(4) for s in config.process_ids}
        pair = run_schedule(config, inputs, quorum, [
            quiet,
            {1: (nan,) * 4, 2: (nan,) * 4, 3: nulls(4), 4: nulls(4)},
            quiet,
            quiet,
        ])
        assert pair.fast.outgoing_votes() == (nan,) * 4

    def test_tuple_subclass_components(self, config, quorum):
        inputs = {q: "v" for q in config.process_ids}
        run_schedule(config, inputs, quorum, [
            {s: WideVotes("v", "v", "v", "v") for s in config.process_ids},
            {s: WideVotes(*nulls(4)) for s in config.process_ids},
            {s: WideVotes(NULL_MESSAGE, "w", NULL_MESSAGE, BOTTOM)
             for s in config.process_ids},
            {s: nulls(4) for s in config.process_ids},
        ])

    def test_round_two_votes_equal_to_round_one(self, config, quorum):
        """The skip rule's edge: the same row in steps 1 and 2 is *not*
        a no-op (step 2 is the first to run the round > 1 rule, and the
        one that decides); the same row in step 3 is."""
        inputs = {q: "v" for q in config.process_ids}
        votes = ("v",) * 4
        pair = Pair(config, inputs, quorum)
        pair.outgoing()
        assert pair.step({s: votes for s in config.process_ids}) == []
        pair.outgoing()
        # Re-sent rather than null-coded: equal votes, non-null cells.
        second = pair.step({s: votes for s in config.process_ids})
        assert [subject for subject, _ in second] == list(config.process_ids)
        pair.outgoing()
        assert pair.step({s: nulls(4) for s in config.process_ids}) == []

    def test_adopting_late_after_settling(self, config, quorum):
        """Rows that change long after the batch went quiet are tallied
        at the right round number."""
        inputs = {q: BOTTOM for q in config.process_ids}
        schedule = [{s: nulls(4) for s in config.process_ids}] * 5
        schedule += [
            {1: ("late",) * 4, 2: ("late",) * 4, 3: nulls(4), 4: nulls(4)},
            {1: nulls(4), 2: nulls(4), 3: ("late",) * 4, 4: nulls(4)},
            {s: nulls(4) for s in config.process_ids},
        ]
        pair = run_schedule(config, inputs, quorum, schedule)
        assert {
            instance.decision_round
            for instance in pair.fast.instances.values()
        } == {7}

    def test_skipped_instances_decide_at_the_right_round(
        self, config, quorum
    ):
        """The batch sits out five rounds, three of them skipped
        outright — and the decision still lands in round 6."""
        batch = AgreementBatch(
            config, 2, {q: BOTTOM for q in config.process_ids}, quorum
        )
        quiet = {s: nulls(4) for s in config.process_ids}
        for _ in range(5):
            assert batch.step(dict(quiet)) == []
        decided = batch.step(
            {1: ("late",) * 4, 2: ("late",) * 4, 3: ("late",) * 4, 4: nulls(4)}
        )
        assert decided == [(q, "late") for q in config.process_ids]
        assert batch.step(dict(quiet)) == []
        assert [
            (instance.decision_round, instance.rounds_completed)
            for instance in batch.instances.values()
        ] == [(6, 7)] * 4

    def test_turning_malformed_late_changes_the_tally(self, config, quorum):
        """A column that goes dark after the batch settled dirties its
        rows: with sender 1's ``a`` gone, ``b`` wins the subject-1 tie."""
        inputs = {q: BOTTOM for q in config.process_ids}
        split = {
            1: ("a",) * 4, 2: ("a",) * 4, 3: ("b",) * 4, 4: ("b",) * 4,
        }
        quiet = {s: nulls(4) for s in config.process_ids}
        pair = run_schedule(config, inputs, quorum, [
            split, quiet, quiet,
            {1: "gone dark", 2: nulls(4), 3: nulls(4), 4: nulls(4)},
        ])
        assert {
            instance.val for instance in pair.fast.instances.values()
        } == {"b"}
        # ... and the votes it remembered come back with its next null.
        pair.step(quiet)
        assert {
            instance.val for instance in pair.fast.instances.values()
        } == {"a"}

    def test_fast_thresholds_decide_in_round_one(self):
        config = SystemConfig(n=5, t=1)
        inputs = {q: "v" for q in config.process_ids}
        pair = run_schedule(config, inputs, fast_thresholds(config), [
            {s: ("v",) * 5 for s in config.process_ids},
            {s: nulls(5) for s in config.process_ids},
            {s: nulls(5) for s in config.process_ids},
        ])
        assert {
            instance.decision_round
            for instance in pair.fast.instances.values()
        } == {1}


# -- little systems: correct processors exchanging their real votes ---------

PALETTE = [
    "a", "b", 1, True, 1.0, 0, None, BOTTOM, NULL_MESSAGE, [1], ("t", 1),
]


def hostile_component(rng, n, honest_votes):
    """Whatever a Byzantine sender might put in a vote component."""
    kind = rng.randrange(8)
    if kind == 0:
        return nulls(n)
    if kind == 1:
        return rng.choice(["junk", 7, None, BOTTOM, (), ("short",), [1] * n])
    if kind == 2:
        return tuple(rng.choice(honest_votes))  # replay a correct sender
    if kind == 3:
        return tuple(rng.choice(PALETTE) for _ in range(n + 1))
    if kind == 4:
        base = rng.choice(honest_votes)
        return tuple(
            vote if rng.random() < 0.5 else NULL_MESSAGE for vote in base
        )
    return tuple(rng.choice(PALETTE) for _ in range(n))


def run_system(config, thresholds, seed, rounds=9):
    """Correct processors (production and oracle side by side) trade
    their real null-coded votes while ``t`` hostile senders send each
    of them something different."""
    rng = random.Random(seed)
    faulty = set(rng.sample(config.process_ids, config.t))
    correct = [p for p in config.process_ids if p not in faulty]
    candidates = ["a", "b", ("c", 1), BOTTOM]
    pairs = {}
    for p in correct:
        # Mostly-agreeing inputs, so instances adopt, decide and settle.
        common = {q: rng.choice(candidates) for q in config.process_ids}
        inputs = {
            q: value if rng.random() < 0.8 else rng.choice(candidates)
            for q, value in common.items()
        }
        pairs[p] = Pair(config, inputs, thresholds)
    decided_anything = False
    for _ in range(rounds):
        sent = {p: pair.outgoing() for p, pair in pairs.items()}
        honest_votes = list(sent.values())
        for p, pair in pairs.items():
            incoming = dict(sent)
            for f in faulty:
                if rng.random() < 0.85:  # else: missing altogether
                    incoming[f] = hostile_component(
                        rng, config.n, honest_votes
                    )
            decided_anything |= bool(pair.step(incoming))
    for pair in pairs.values():
        pair.outgoing()
    return decided_anything


@pytest.mark.parametrize("seed", range(40))
def test_seeded_systems_standard_thresholds(seed):
    config = SystemConfig(n=7, t=2)
    run_system(config, standard_thresholds(config), seed)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_systems_fast_thresholds(seed):
    config = SystemConfig(n=9, t=2)
    run_system(config, fast_thresholds(config), 1000 + seed)


def test_seeded_systems_do_decide():
    """The schedules above are not vacuous: instances decide in them."""
    config = SystemConfig(n=7, t=2)
    assert any(
        run_system(config, standard_thresholds(config), seed)
        for seed in range(5)
    )


# -- hypothesis: arbitrary components for every sender ----------------------

N = 4
NAN = float("nan")  # one object that is not equal to itself
vote = st.sampled_from(["a", "b", 1, True, NAN, None, BOTTOM, NULL_MESSAGE]) | (
    st.lists(st.integers(0, 1), max_size=1)  # unhashable
)
component = (
    st.tuples(*[vote] * N)
    | st.just(nulls(N))
    | st.sampled_from(["junk", 7, None, BOTTOM, (), ("a",) * (N + 1)])
)
round_votes = st.dictionaries(st.integers(1, N), component, max_size=N)


@settings(max_examples=150, deadline=None)
@given(
    inputs=st.dictionaries(
        st.integers(1, N), st.sampled_from(["a", "b", BOTTOM]), max_size=N
    ),
    schedule=st.lists(round_votes, min_size=1, max_size=8),
    fast=st.booleans(),
)
def test_arbitrary_schedules(inputs, schedule, fast):
    # The n = 4 fast quorums are not a sound protocol (n < 4t + 1 for
    # t = 1); the batch must mirror the oracle under any quorums, so
    # build them for t = 0 and let hostile senders do what they like.
    config = SystemConfig(n=N, t=1)
    thresholds = (
        fast_thresholds(SystemConfig(n=N, t=0))
        if fast
        else standard_thresholds(config)
    )
    run_schedule(config, inputs, thresholds, schedule)
