"""Tests for avalanche batches and compact payloads."""

import pytest

from repro.avalanche.coding import NULL_MESSAGE, is_null_message
from repro.avalanche.protocol import standard_thresholds
from repro.compact.payload import CompactPayload, compact_sizer, payload_is_null
from repro.compact.subprotocol import AgreementBatch
from repro.types import BOTTOM, SystemConfig, is_bottom


@pytest.fixture
def config():
    return SystemConfig(n=4, t=1)


def make_batch(config, inputs=None):
    default_inputs = {q: ("v", q) for q in config.process_ids}
    return AgreementBatch(
        config,
        boundary=2,
        inputs=inputs if inputs is not None else default_inputs,
        thresholds=standard_thresholds(config),
    )


class TestAgreementBatch:
    def test_one_instance_per_subject(self, config):
        batch = make_batch(config)
        assert set(batch.instances) == set(config.process_ids)

    def test_outgoing_votes_are_inputs_initially(self, config):
        batch = make_batch(config)
        votes = batch.outgoing_votes()
        assert votes == (("v", 1), ("v", 2), ("v", 3), ("v", 4))

    def test_votes_null_compress_on_repeat(self, config):
        batch = make_batch(config)
        first = batch.outgoing_votes()
        # Step with everyone echoing the same votes: VALs stay put.
        votes_by_sender = {s: first for s in config.process_ids}
        batch.step(votes_by_sender)
        second = batch.outgoing_votes()
        assert all(is_null_message(vote) for vote in second)

    def test_consensus_decides_in_two_steps(self, config):
        inputs = {q: "core" for q in config.process_ids}
        batch = make_batch(config, inputs={q: "core-of-q" for q in config.process_ids})
        votes = batch.outgoing_votes()
        all_votes = {s: votes for s in config.process_ids}
        decided_round1 = batch.step(dict(all_votes))
        votes2 = batch.outgoing_votes()
        decided_round2 = batch.step({s: votes2 for s in config.process_ids})
        assert decided_round1 == []
        assert {subject for subject, _ in decided_round2} == set(
            config.process_ids
        )
        assert all(value == "core-of-q" for _, value in decided_round2)

    def test_null_votes_decoded_via_memory(self, config):
        batch = make_batch(config)
        votes = batch.outgoing_votes()
        batch.step({s: votes for s in config.process_ids})
        nulls = tuple(NULL_MESSAGE for _ in config.process_ids)
        decided = batch.step({s: nulls for s in config.process_ids})
        # Null votes decoded to the remembered round-1 votes: quorum
        # reached, everything decides.
        assert {subject for subject, _ in decided} == set(config.process_ids)

    def test_garbage_components_tolerated(self, config):
        batch = make_batch(config)
        decided = batch.step(
            {1: "junk", 2: 42, 3: ("short",), 4: BOTTOM}
        )
        assert decided == []

    def test_bottom_inputs_mean_no_vote(self, config):
        batch = make_batch(config, inputs={q: BOTTOM for q in config.process_ids})
        votes = batch.outgoing_votes()
        assert all(is_bottom(vote) for vote in votes)

    def test_decisions_reported_once(self, config):
        batch = make_batch(config)
        votes = batch.outgoing_votes()
        all_votes = {s: votes for s in config.process_ids}
        batch.step(dict(all_votes))
        first = batch.step(
            {s: batch.outgoing_votes() for s in config.process_ids}
        )
        later = batch.step(
            {s: batch.outgoing_votes() for s in config.process_ids}
        )
        assert first and not later
        assert batch.decided_subjects() == tuple(config.process_ids)


class TestCompactPayload:
    def test_votes_for_lookup(self):
        payload = CompactPayload(main="core", votes=((2, ("a", "b")),))
        assert dict(payload.vote_slots()) == {2: ("a", "b")}
        assert payload.vote_slots() is payload.votes  # well-formed: no copy

    def test_payload_is_null(self):
        assert payload_is_null(CompactPayload(main=BOTTOM))
        assert payload_is_null(
            CompactPayload(main=BOTTOM, votes=((2, (NULL_MESSAGE, BOTTOM)),))
        )
        assert not payload_is_null(CompactPayload(main="core"))
        assert not payload_is_null(
            CompactPayload(main=BOTTOM, votes=((2, ("vote", BOTTOM)),))
        )

    def test_non_payload_objects(self):
        assert payload_is_null(BOTTOM)
        assert payload_is_null(NULL_MESSAGE)
        assert not payload_is_null("x")


#: ``votes`` a Byzantine sender can put in a payload that is not a tuple
#: of ``(boundary, vote_tuple)`` pairs.
HOSTILE_VOTES = [7, None, (5,), ((1, 2, 3),), ([2], [3])]


@pytest.mark.parametrize("votes", HOSTILE_VOTES, ids=repr)
class TestMalformedVotesFailClosed:
    """A malformed ``votes`` field is "no votes from this sender this
    round": no slots, 0 bits, null — and never an exception out of a
    correct processor's ``receive`` or the meters."""

    def test_no_slots(self, votes):
        assert CompactPayload(main=BOTTOM, votes=votes).vote_slots() == ()

    def test_sized_as_its_main_component_alone(self, config, votes):
        sizer = compact_sizer(config, value_alphabet_size=2)
        assert sizer(CompactPayload(main=BOTTOM, votes=votes)) == 0
        assert sizer(CompactPayload(main=(0, 1, 0, 1), votes=votes)) == sizer(
            CompactPayload(main=(0, 1, 0, 1))
        )

    def test_null_iff_its_main_component_is(self, votes):
        assert payload_is_null(CompactPayload(main=BOTTOM, votes=votes))
        assert not payload_is_null(CompactPayload(main="core", votes=votes))


def test_malformed_slots_are_dropped_one_by_one(config):
    """A well-formed slot next to a malformed one still counts."""
    good = (2, ("vote", NULL_MESSAGE, BOTTOM, BOTTOM))
    payload = CompactPayload(
        main=BOTTOM,
        votes=(good, (3, "not a tuple"), ("3", ()), (4,), [5, ()], good),
    )
    assert payload.vote_slots() == (good, good)
    assert not payload_is_null(payload)
    sizer = compact_sizer(config, value_alphabet_size=2)
    assert sizer(payload) == 2 * sizer(CompactPayload(main=BOTTOM, votes=(good,)))


class TestCompactSizer:
    def test_main_component_charged(self, config):
        sizer = compact_sizer(config, value_alphabet_size=2)
        empty = sizer(CompactPayload(main=BOTTOM))
        with_main = sizer(CompactPayload(main=(0, 0, 0, 0)))
        assert empty == 0
        assert with_main > 0

    def test_null_votes_cost_zero(self, config):
        sizer = compact_sizer(config, value_alphabet_size=2)
        nulls = CompactPayload(
            main=BOTTOM,
            votes=((2, tuple(NULL_MESSAGE for _ in config.process_ids)),),
        )
        assert sizer(nulls) == 0

    def test_real_votes_charged(self, config):
        sizer = compact_sizer(config, value_alphabet_size=2)
        payload = CompactPayload(
            main=BOTTOM, votes=((2, ((0, 1, 0, 1), BOTTOM, BOTTOM, BOTTOM)),)
        )
        assert sizer(payload) > 0

    def test_plain_objects_measured(self, config):
        sizer = compact_sizer(config, value_alphabet_size=2)
        assert sizer(BOTTOM) == 0
        assert sizer((0, 1, 0, 1)) > 0


def test_slots_are_read_through_the_base_classes(config):
    """Overrides on the field, a slot, a boundary or a vote tuple never
    run: a boundary reads as its exact ``int``, and the batch sizes a
    vote tuple by ``tuple.__len__``, whatever its class claims."""
    from tests.compact.test_byzantine_agreement import (
        HashRaises,
        IterRaises,
        LenLiar,
    )

    votes = ("v",) * 4
    payload = CompactPayload(
        main=BOTTOM,
        votes=IterRaises(
            [IterRaises((HashRaises(2), IterRaises(votes))), (3, LenLiar(range(9)))]
        ),
    )
    assert [type(boundary) for boundary, _ in payload.vote_slots()] == [int, int]
    assert payload.votes_by_boundary.keys() == {2, 3}
    assert not payload_is_null(payload)
    sizer = compact_sizer(config, value_alphabet_size=2)
    assert sizer(payload) == sizer(
        CompactPayload(main=BOTTOM, votes=((2, votes), (3, tuple(range(9)))))
    )
    batch = make_batch(config, inputs={q: "v" for q in config.process_ids})
    batch.step({s: payload.votes_by_boundary[3] for s in config.process_ids})
    assert {instance.val for instance in batch.instances.values()} == {BOTTOM}
    batch.step({s: payload.votes_by_boundary[2] for s in config.process_ids})
    assert {instance.val for instance in batch.instances.values()} == {"v"}
