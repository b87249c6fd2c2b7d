"""Correctness predicates (Section 3.1).

A predicate ``C`` with domain ``(V u {BOTTOM})^n x 2^{1..n} x V^n``
judges a deciding execution from its answer vector ``ans(E)``, fault
set ``F`` and input vector ``I``.  A protocol satisfies ``C`` when
every deciding execution makes ``C(ans(E), F, I)`` true.  Theorem 1
says simulation preserves any such predicate, which is why the paper
can state its transformation once and have it apply to Byzantine
agreement, approximate agreement, and the rest.

Predicates here are plain callables; combinators build compound ones.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Sequence, Tuple

from repro.types import BOTTOM, ProcessId, Value

# C(ans, F, I) -> bool.  ``ans`` and ``I`` are n-tuples indexed by
# processor id minus one; ``F`` is the fault set.
CorrectnessPredicate = Callable[
    [Tuple[Value, ...], FrozenSet[ProcessId], Tuple[Value, ...]], bool
]


def _correct_entries(
    answers: Sequence[Value], faulty: FrozenSet[ProcessId]
) -> list:
    return [
        answers[index]
        for index in range(len(answers))
        if (index + 1) not in faulty
    ]


def agreement_predicate() -> CorrectnessPredicate:
    """All correct processors reach the same decision."""

    def check(answers, faulty, inputs) -> bool:
        decisions = _correct_entries(answers, faulty)
        return len({decision for decision in decisions}) <= 1

    return check


def validity_predicate() -> CorrectnessPredicate:
    """Unanimous correct input forces that value as every decision."""

    def check(answers, faulty, inputs) -> bool:
        correct_inputs = _correct_entries(inputs, faulty)
        if len(set(correct_inputs)) != 1:
            return True  # no unanimity, nothing required
        required = correct_inputs[0]
        return all(
            decision == required for decision in _correct_entries(answers, faulty)
        )

    return check


def conjunction(*predicates: CorrectnessPredicate) -> CorrectnessPredicate:
    """All of the given predicates must hold."""

    def check(answers, faulty, inputs) -> bool:
        return all(predicate(answers, faulty, inputs) for predicate in predicates)

    return check


def byzantine_agreement_predicate() -> CorrectnessPredicate:
    """The Section 2 conditions: agreement and validity together."""
    return conjunction(agreement_predicate(), validity_predicate())


def approximate_agreement_predicate(epsilon: float) -> CorrectnessPredicate:
    """Approximate agreement: eps-closeness plus range validity.

    Decisions of correct processors must lie within ``epsilon`` of one
    another and inside the range of the correct inputs — the
    correctness conditions of the approximate agreement problem the
    paper names as a second application (Fekete's protocol).
    """

    def check(answers, faulty, inputs) -> bool:
        decisions = [
            float(value) for value in _correct_entries(answers, faulty)
            if value is not BOTTOM
        ]
        if not decisions:
            return True
        correct_inputs = [float(value) for value in _correct_entries(inputs, faulty)]
        low, high = min(correct_inputs), max(correct_inputs)
        if max(decisions) - min(decisions) > epsilon + 1e-12:
            return False
        return all(low - 1e-12 <= value <= high + 1e-12 for value in decisions)

    return check
