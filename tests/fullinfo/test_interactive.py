"""Tests for interactive consistency (the PSL vector problem)."""

import pytest

from repro.compact.protocol import compact_factory
from repro.errors import ProtocolViolation
from repro.fullinfo.interactive import (
    interactive_consistency_decision,
    make_interactive_consistency_rule,
)
from repro.fullinfo.protocol import full_information_factory
from repro.runtime.engine import run_protocol

from tests.conftest import byzantine_adversaries

ALPHABET = [0, 1, 2]


def run_ic_fullinfo(config, inputs, adversary=None, seed=0):
    rule = make_interactive_consistency_rule(
        config.t, default=0, alphabet=ALPHABET
    )
    return run_protocol(
        full_information_factory(
            ALPHABET, decision_rule=rule, horizon=config.t + 1
        ),
        config,
        inputs,
        adversary=adversary,
        max_rounds=config.t + 2,
        seed=seed,
    )


def run_ic_compact(config, inputs, k=2, adversary=None, seed=0):
    rule = make_interactive_consistency_rule(
        config.t, default=0, alphabet=ALPHABET
    )
    from repro.core.rounds import BlockSchedule

    deadline = BlockSchedule(k).actual_rounds_for(config.t + 1)
    return run_protocol(
        compact_factory(
            k=k,
            value_alphabet=ALPHABET,
            decision_rule=rule,
            horizon=config.t + 1,
        ),
        config,
        inputs,
        adversary=adversary,
        max_rounds=deadline + 1,
        seed=seed,
    )


def assert_ic_conditions(result, inputs):
    vectors = list(result.decisions.values())
    assert all(isinstance(vector, tuple) for vector in vectors)
    # (a) one common vector
    assert len(set(vectors)) == 1
    vector = vectors[0]
    # (b) correct components are the correct inputs
    for process_id in result.processes:
        assert vector[process_id - 1] == inputs[process_id]


class TestDecisionFunction:
    def test_requires_full_depth(self, config4):
        with pytest.raises(ProtocolViolation):
            interactive_consistency_decision((0, 1, 0, 1), 4, 1, default=0)

    def test_fault_free_vector_is_input_vector(self, config4):
        inputs = {1: 0, 2: 1, 3: 2, 4: 1}
        result = run_ic_fullinfo(config4, inputs)
        assert set(result.decisions.values()) == {(0, 1, 2, 1)}


class TestFullInformationIC:
    @pytest.mark.parametrize("faulty", [(1,), (3,)])
    def test_sweep_n4(self, config4, faulty):
        inputs = {p: p % 3 for p in config4.process_ids}
        for adversary in byzantine_adversaries(list(faulty), values=ALPHABET):
            result = run_ic_fullinfo(config4, inputs, adversary=adversary)
            assert_ic_conditions(result, inputs)

    @pytest.mark.parametrize("faulty", [(2, 6)])
    def test_sweep_n7(self, config7, faulty):
        inputs = {p: p % 3 for p in config7.process_ids}
        for adversary in byzantine_adversaries(list(faulty), values=ALPHABET):
            result = run_ic_fullinfo(config7, inputs, adversary=adversary)
            assert_ic_conditions(result, inputs)


class TestCompactIC:
    """Interactive consistency through the canonical form — a third
    application of the transformation."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_sweep(self, config4, k):
        inputs = {p: p % 3 for p in config4.process_ids}
        for adversary in byzantine_adversaries([2], values=ALPHABET):
            result = run_ic_compact(config4, inputs, k=k, adversary=adversary)
            assert_ic_conditions(result, inputs)

    def test_matches_fullinfo_fault_free(self, config4):
        inputs = {p: p % 3 for p in config4.process_ids}
        compact = run_ic_compact(config4, inputs)
        fullinfo = run_ic_fullinfo(config4, inputs)
        assert compact.decisions == fullinfo.decisions

    def test_majority_of_vector_gives_byzantine_agreement(self, config7):
        """IC subsumes BA: majority over the agreed vector."""
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in byzantine_adversaries([3, 6]):
            result = run_ic_compact(config7, inputs, k=1, adversary=adversary)
            vector = next(iter(set(result.decisions.values())))
            tally = {}
            for value in vector:
                tally[value] = tally.get(value, 0) + 1
            majority = max(tally, key=lambda value: (tally[value], repr(value)))
            # agreement: every correct processor derives the same value
            assert majority in (0, 1)
