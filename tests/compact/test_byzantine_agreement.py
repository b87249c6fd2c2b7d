"""Corollary 10 end-to-end: agreement, validity, rounds, fidelity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.compact.byzantine_agreement import (
    compact_ba_rounds,
    resolve_k,
    run_compact_byzantine_agreement,
)
from repro.compact.payload import CompactPayload
from repro.core.simulation import check_fullinfo_consistency
from repro.errors import ConfigurationError
from repro.types import SystemConfig

from tests.conftest import (
    assert_agreement_and_validity,
    byzantine_adversaries,
)


class TestResolveK:
    def test_exactly_one_parameter(self, config4):
        with pytest.raises(ConfigurationError):
            resolve_k(config4)
        with pytest.raises(ConfigurationError):
            resolve_k(config4, k=2, epsilon=1.0)

    def test_epsilon_derivation(self, config4):
        assert resolve_k(config4, epsilon=1.0) == 2
        assert resolve_k(config4, epsilon=0.5) == 4
        assert resolve_k(config4, epsilon=1.0, overhead=1) == 1


class TestRoundCounts:
    def test_decision_at_predicted_round(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        for k in (1, 2, 3):
            result = run_compact_byzantine_agreement(
                config4, inputs, value_alphabet=[0, 1], k=k
            )
            assert result.rounds == compact_ba_rounds(config4.t, k)
            assert all(
                r == result.rounds for r in result.decision_rounds.values()
            )

    def test_corollary10_round_guarantee(self):
        for t in (1, 2, 3, 4):
            for epsilon in (2.0, 1.0, 0.5, 0.25):
                k = resolve_k(SystemConfig(3 * t + 1, t), epsilon=epsilon)
                assert compact_ba_rounds(t, k) <= (1 + epsilon) * (t + 1)

    def test_fast_variant_fewer_rounds(self):
        t = 2
        k = 2
        assert compact_ba_rounds(t, k, overhead=1) < compact_ba_rounds(
            t, k, overhead=2
        )


class TestAgreementSweep:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("faulty", [(1,), (4,)])
    def test_n4_all_strategies(self, config4, k, faulty):
        inputs = {p: p % 2 for p in config4.process_ids}
        for adversary in byzantine_adversaries(list(faulty)):
            result = run_compact_byzantine_agreement(
                config4,
                inputs,
                value_alphabet=[0, 1],
                k=k,
                adversary=adversary,
            )
            assert_agreement_and_validity(result, inputs)

    @pytest.mark.parametrize("faulty", [(1, 2), (3, 7)])
    def test_n7_all_strategies(self, config7, faulty):
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in byzantine_adversaries(list(faulty)):
            result = run_compact_byzantine_agreement(
                config7,
                inputs,
                value_alphabet=[0, 1],
                k=1,
                adversary=adversary,
            )
            assert_agreement_and_validity(result, inputs)

    def test_unanimity_under_attack(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        for adversary in byzantine_adversaries([2, 5]):
            result = run_compact_byzantine_agreement(
                config7,
                inputs,
                value_alphabet=[0, 1],
                k=2,
                adversary=adversary,
            )
            assert result.decided_values() == {1}

    def test_multivalued_alphabet(self, config4):
        inputs = {1: "red", 2: "green", 3: "red", 4: "blue"}
        result = run_compact_byzantine_agreement(
            config4,
            inputs,
            value_alphabet=["red", "green", "blue"],
            k=2,
        )
        assert len(result.decided_values()) == 1

    def test_fast_variant_agreement(self, config9):
        inputs = {p: p % 2 for p in config9.process_ids}
        for adversary in byzantine_adversaries([3, 8]):
            result = run_compact_byzantine_agreement(
                config9,
                inputs,
                value_alphabet=[0, 1],
                k=1,
                overhead=1,
                adversary=adversary,
            )
            assert_agreement_and_validity(result, inputs)
            assert result.rounds == compact_ba_rounds(config9.t, 1, overhead=1)


class MalformedVotesAdversary(Adversary):
    """A correct-looking main component beside a malformed ``votes``."""

    def __init__(self, faulty_ids, votes):
        super().__init__(faulty_ids)
        self.votes = votes

    def outgoing(self, round_number, sender, context):
        messages = {}
        for receiver in self.config.process_ids:
            template = context.sample_correct_message(receiver)
            main = template.main if isinstance(template, CompactPayload) else 0
            messages[receiver] = CompactPayload(main=main, votes=self.votes)
        return messages


class TestMalformedVotesFailClosed:
    """``votes`` that is not a tuple of ``(boundary, n-tuple)`` pairs
    used to raise out of a correct processor's ``receive`` (and out of
    the sizer and the null test when adversary traffic is metered)."""

    @pytest.mark.parametrize("meter_adversary", [False, True])
    @pytest.mark.parametrize(
        "votes", [7, None, (5,), ((1, 2, 3),), ([2], [3])], ids=repr
    )
    @pytest.mark.parametrize("faulty", [1, 4])
    def test_hostile_sender_per_shape(
        self, config4, faulty, votes, meter_adversary
    ):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact_byzantine_agreement(
            config4,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=MalformedVotesAdversary([faulty], votes),
            meter_adversary=meter_adversary,
        )
        assert_agreement_and_validity(result, inputs)


class LenLiar(tuple):
    """Claims four slots, holds nine."""

    def __len__(self):
        return 4


class HashRaises(int):
    """A boundary that cannot be a dict key."""

    def __hash__(self):
        raise RuntimeError("hostile __hash__")


class IterRaises(tuple):
    """A tuple whose own iteration raises."""

    def __iter__(self):
        raise RuntimeError("hostile __iter__")


class LookAlike:
    """Claims to be a ``CompactPayload`` through ``__class__`` only."""

    __class__ = property(lambda self: CompactPayload)


def redressed(reshape):
    """The correct ``main`` beside a reshaped ``votes`` field."""
    return lambda template: CompactPayload(
        main=template.main, votes=reshape(template.votes)
    )


#: Faulty payloads built from a correct one, each with a subclass whose
#: overrides lie or raise at a level a reader touches.
OVERRIDDEN_SHAPES = {
    "len-lying vote tuple": redressed(lambda votes: tuple(
        (boundary, LenLiar(range(9))) for boundary, _ in votes
    )),
    "hash-raising boundary": redressed(lambda votes: tuple(
        (HashRaises(boundary), vote_tuple) for boundary, vote_tuple in votes
    )),
    "iter-raising vote tuple": redressed(lambda votes: tuple(
        (boundary, IterRaises(vote_tuple)) for boundary, vote_tuple in votes
    )),
    "iter-raising slot": redressed(lambda votes: tuple(
        IterRaises(slot) for slot in votes
    )),
    "iter-raising votes field": redressed(IterRaises),
    # Not a payload at all, though ``isinstance`` believes it is one.
    "look-alike payload": lambda template: LookAlike(),
}


class OverriddenShapesAdversary(Adversary):
    """Sends each receiver a forgery of the correct payload it gets."""

    def __init__(self, faulty_ids, forge):
        super().__init__(faulty_ids)
        self.forge = forge

    def outgoing(self, round_number, sender, context):
        messages = {}
        for receiver in self.config.process_ids:
            template = context.sample_correct_message(receiver)
            if isinstance(template, CompactPayload):
                messages[receiver] = self.forge(template)
        return messages


class TestOverriddenVoteShapesFailClosed:
    """A tuple or int subclass in ``votes`` used to run its own
    ``__len__``, ``__hash__`` or ``__iter__`` inside a correct
    processor's ``receive`` (or the meters) and crash the run, and so
    did a look-alike's missing fields; the slot reader now goes through
    the base classes only, and readers dispatch on ``type``."""

    @pytest.mark.parametrize("meter_adversary", [False, True])
    @pytest.mark.parametrize("shape", sorted(OVERRIDDEN_SHAPES))
    def test_hostile_sender_per_shape(self, config4, shape, meter_adversary):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact_byzantine_agreement(
            config4,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=OverriddenShapesAdversary(
                [4], OVERRIDDEN_SHAPES[shape]
            ),
            meter_adversary=meter_adversary,
        )
        assert_agreement_and_validity(result, inputs)


class TestMatchesExponentialBaseline:
    def test_same_decision_as_eig_fault_free(self, config4):
        """The compact protocol applies the same decision rule to a
        simulated state; fault-free, the decisions must be identical
        to the exponential protocol's."""
        from repro.agreement.eig_agreement import run_eig_agreement

        for pattern in range(3):
            inputs = {
                p: (p + pattern) % 2 for p in config4.process_ids
            }
            compact = run_compact_byzantine_agreement(
                config4, inputs, value_alphabet=[0, 1], k=2
            )
            exponential = run_eig_agreement(config4, inputs, [0, 1])
            assert compact.decisions == {
                p: exponential.decisions[p] for p in compact.decisions
            }


class TestSimulationFidelityUnderFaults:
    @pytest.mark.parametrize("strategy_index", range(6))
    def test_full_states_consistent_with_some_execution(
        self, config4, strategy_index
    ):
        """Theorem 9 checked existentially under every adversary."""
        inputs = {p: p % 2 for p in config4.process_ids}
        adversary = byzantine_adversaries([2])[strategy_index]
        result = run_compact_byzantine_agreement(
            config4,
            inputs,
            value_alphabet=[0, 1],
            k=2,
            adversary=adversary,
            record_trace=True,
            expose_full_state=True,
        )
        correct = sorted(result.processes)
        full_states = {p: [inputs[p]] for p in correct}
        progress_seen = {p: 0 for p in correct}
        for round_number in result.trace.rounds:
            for process_id in correct:
                snapshot = result.trace.snapshot(round_number, process_id)
                if (
                    snapshot
                    and "full_state" in snapshot
                    and snapshot["simul"] == progress_seen[process_id] + 1
                ):
                    full_states[process_id].append(snapshot["full_state"])
                    progress_seen[process_id] += 1
        check_fullinfo_consistency(
            full_states, correct, inputs, config4.n, value_alphabet=[0, 1]
        )


@settings(max_examples=15, deadline=None)
@given(
    pattern=st.integers(0, 7),
    faulty=st.sets(st.integers(1, 7), min_size=1, max_size=2),
    strategy_index=st.integers(0, 5),
)
def test_agreement_property(pattern, faulty, strategy_index):
    config = SystemConfig(n=7, t=2)
    inputs = {p: (p * (pattern + 1)) % 2 for p in config.process_ids}
    adversary = byzantine_adversaries(sorted(faulty))[strategy_index]
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=1, adversary=adversary
    )
    assert_agreement_and_validity(result, inputs)
