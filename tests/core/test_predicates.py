"""Tests for correctness predicates."""

from repro.core.predicates import (
    agreement_predicate,
    approximate_agreement_predicate,
    byzantine_agreement_predicate,
    conjunction,
    validity_predicate,
)
from repro.types import BOTTOM


def strong_validity_predicate():
    """Every decision was some correct processor's input.

    Stronger than the paper's validity condition; the plausibility-style
    check of a multivalued protocol, kept here as a test predicate.
    """

    def check(answers, faulty, inputs):
        def correct(entries):
            return [e for i, e in enumerate(entries, 1) if i not in faulty]

        correct_inputs = set(correct(inputs))
        return all(
            decision in correct_inputs
            for decision in correct(answers)
            if decision is not BOTTOM
        )

    return check


class TestAgreement:
    def test_same_decisions_pass(self):
        predicate = agreement_predicate()
        assert predicate(("v", "v", "v"), frozenset(), ("a", "b", "c"))

    def test_faulty_entries_ignored(self):
        predicate = agreement_predicate()
        assert predicate(("v", "x", "v"), frozenset({2}), ("a", "b", "c"))

    def test_disagreement_fails(self):
        predicate = agreement_predicate()
        assert not predicate(("v", "w", "v"), frozenset(), ("a", "b", "c"))


class TestValidity:
    def test_unanimous_enforced(self):
        predicate = validity_predicate()
        assert predicate(("v", "v"), frozenset(), ("v", "v"))
        assert not predicate(("w", "w"), frozenset(), ("v", "v"))

    def test_mixed_inputs_unconstrained(self):
        predicate = validity_predicate()
        assert predicate(("w", "w"), frozenset(), ("v", "u"))

    def test_faulty_inputs_excluded_from_unanimity(self):
        predicate = validity_predicate()
        # Correct inputs are unanimous "v"; faulty input "z" ignored.
        assert not predicate(
            ("w", "w", BOTTOM), frozenset({3}), ("v", "v", "z")
        )


class TestCombinators:
    def test_conjunction(self):
        always = lambda ans, f, i: True  # noqa: E731
        never = lambda ans, f, i: False  # noqa: E731
        assert conjunction(always, always)((), frozenset(), ())
        assert not conjunction(always, never)((), frozenset(), ())

    def test_byzantine_agreement_is_both(self):
        predicate = byzantine_agreement_predicate()
        assert predicate(("v", "v"), frozenset(), ("v", "v"))
        assert not predicate(("v", "w"), frozenset(), ("v", "w"))
        assert not predicate(("w", "w"), frozenset(), ("v", "v"))


class TestStrongValidity:
    def test_decision_must_be_some_correct_input(self):
        predicate = strong_validity_predicate()
        assert predicate(("a", "b"), frozenset(), ("a", "b"))
        assert not predicate(("z", "z"), frozenset(), ("a", "b"))

    def test_faulty_input_cannot_justify(self):
        predicate = strong_validity_predicate()
        assert not predicate(("z", "z", BOTTOM), frozenset({3}), ("a", "b", "z"))


class TestApproximate:
    def test_close_decisions_in_range_pass(self):
        predicate = approximate_agreement_predicate(0.5)
        assert predicate((1.0, 1.3), frozenset(), (0.0, 2.0))

    def test_spread_beyond_epsilon_fails(self):
        predicate = approximate_agreement_predicate(0.1)
        assert not predicate((1.0, 1.3), frozenset(), (0.0, 2.0))

    def test_out_of_range_fails(self):
        predicate = approximate_agreement_predicate(10.0)
        assert not predicate((5.0, 5.0), frozenset(), (0.0, 2.0))

    def test_faulty_inputs_do_not_widen_range(self):
        predicate = approximate_agreement_predicate(10.0)
        assert not predicate(
            (5.0, 5.0, BOTTOM), frozenset({3}), (0.0, 2.0, 100.0)
        )

    def test_empty_decisions_pass(self):
        predicate = approximate_agreement_predicate(0.1)
        assert predicate((BOTTOM, BOTTOM), frozenset(), (0.0, 2.0))
