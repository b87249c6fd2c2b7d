"""Property-based tests for the AvalancheInstance state machine.

Driving a single instance with arbitrary vote streams (as a Byzantine
network could produce for one receiver) must never crash it, and its
local decisions must always be justified by an actual quorum.
"""

from hypothesis import given, settings, strategies as st

from repro.avalanche.fast import fast_thresholds
from repro.avalanche.protocol import AvalancheInstance
from repro.types import BOTTOM, SystemConfig, is_bottom


def vote_streams(n: int, rounds: int):
    vote = st.one_of(
        st.sampled_from(["v", "w", "u"]),
        st.just(BOTTOM),
        st.integers(0, 3),
        st.tuples(st.integers(0, 1)),  # malformed (non-scalar)
        st.just(None),
    )
    return st.lists(
        st.lists(vote, min_size=n, max_size=n),
        min_size=1,
        max_size=rounds,
    )


@settings(max_examples=80, deadline=None)
@given(
    stream=vote_streams(7, 8),
    my_input=st.sampled_from(["v", "w", BOTTOM]),
)
def test_never_crashes_and_decisions_are_quorum_backed(stream, my_input):
    config = SystemConfig(n=7, t=2)
    instance = AvalancheInstance(config, input_value=my_input)
    decided_at = None
    for round_index, votes in enumerate(stream, start=1):
        counts = {}
        for vote in votes:
            if is_bottom(vote) or vote is None:
                continue
            counts[vote] = counts.get(vote, 0) + 1
        instance.step(list(votes))
        if instance.has_decided() and decided_at is None:
            decided_at = round_index
            # A decision this round requires a 2t+1 quorum among this
            # round's legal votes for the decided value, and it can
            # never happen in round 1 (standard thresholds).
            assert round_index >= 2
            assert counts.get(instance.decision, 0) >= 2 * config.t + 1
    if decided_at is not None:
        assert instance.decision_round == decided_at
        # Decisions are irrevocable even under later garbage.
        final = instance.decision
        instance.step([BOTTOM] * config.n)
        assert instance.decision == final


@settings(max_examples=60, deadline=None)
@given(stream=vote_streams(9, 6), my_input=st.sampled_from(["v", BOTTOM]))
def test_fast_instance_round1_decisions_need_n_minus_t(stream, my_input):
    config = SystemConfig(n=9, t=2)
    instance = AvalancheInstance(
        config, input_value=my_input, thresholds=fast_thresholds(config)
    )
    for round_index, votes in enumerate(stream, start=1):
        counts = {}
        for vote in votes:
            if is_bottom(vote) or vote is None:
                continue
            counts[vote] = counts.get(vote, 0) + 1
        already = instance.has_decided()
        instance.step(list(votes))
        if instance.has_decided() and not already:
            quorum = (
                config.n - config.t
            )  # both round-1 and later decisions use n - t
            assert counts.get(instance.decision, 0) >= quorum


@settings(max_examples=40, deadline=None)
@given(stream=vote_streams(7, 6))
def test_val_only_moves_with_t_plus_1_votes(stream):
    """After round 1, VAL changes only on an adopt quorum."""
    config = SystemConfig(n=7, t=2)
    instance = AvalancheInstance(config, input_value="v")
    previous = instance.val
    for round_index, votes in enumerate(stream, start=1):
        counts = {}
        for vote in votes:
            if is_bottom(vote) or vote is None:
                continue
            counts[vote] = counts.get(vote, 0) + 1
        instance.step(list(votes))
        if round_index >= 2 and instance.val != previous:
            assert counts.get(instance.val, 0) >= config.t + 1
        previous = instance.val
