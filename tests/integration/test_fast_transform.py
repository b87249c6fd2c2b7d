"""The n >= 4t + 1 general transformation (Section 5.6's last claim).

"If n >= 4t + 1 then a modification of our technique can transform any
(t + 1)-round consensus protocol to a (1 + eps)(t + 1)-round protocol"
— the modification being the one-round-consensus avalanche and blocks
of k + 1.  The public API carries it as ``overhead=1`` on
:func:`repro.core.transform.canonical_form`; here the *general*
transform (not just the packaged BA) runs with it.
"""

import pytest

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.agreement.approximate import ApproximateAgreementAutomaton
from repro.agreement.eig_agreement import ExponentialAgreementAutomaton
from repro.core.predicates import (
    approximate_agreement_predicate,
    byzantine_agreement_predicate,
)
from repro.core.rounds import k_for_epsilon
from repro.core.transform import canonical_form
from repro.errors import ConfigurationError


class TestFastCanonicalForm:
    def test_k_halves_for_the_same_epsilon(self, config9):
        protocol = ExponentialAgreementAutomaton(config9, [0, 1])
        standard = canonical_form(protocol, epsilon=1.0, overhead=2)
        fast = canonical_form(protocol, epsilon=1.0, overhead=1)
        assert standard.k == 2 and fast.k == 1
        assert fast.deadline <= standard.deadline

    def test_ba_through_fast_transform(self, config9):
        protocol = ExponentialAgreementAutomaton(config9, [0, 1])
        form = canonical_form(protocol, k=1, overhead=1)
        predicate = byzantine_agreement_predicate()
        for adversary in (
            SilentAdversary([4, 9]),
            EquivocatingAdversary([4, 9], 0, 1),
        ):
            inputs = {p: p % 2 for p in config9.process_ids}
            result = form.run(inputs, adversary=adversary)
            assert result.is_deciding()
            assert result.rounds == form.deadline
            assert predicate(
                result.answer_vector(),
                frozenset(result.faulty_ids),
                tuple(inputs[p] for p in config9.process_ids),
            )

    def test_approximate_through_fast_transform(self, config9):
        grid = list(range(0, 33))
        automaton = ApproximateAgreementAutomaton(config9, grid, rounds=4)
        form = canonical_form(automaton, k=2, overhead=1)
        inputs = {
            p: [0, 32, 16, 8, 24, 4, 28, 12, 20][p - 1]
            for p in config9.process_ids
        }
        predicate = approximate_agreement_predicate(32 / 2**4 + 1)
        result = form.run(
            inputs, adversary=EquivocatingAdversary([3, 7], 0, 32)
        )
        assert predicate(
            result.answer_vector(),
            frozenset(result.faulty_ids),
            tuple(inputs[p] for p in config9.process_ids),
        )

    def test_fast_form_rejected_below_4t_plus_1(self, config7):
        protocol = ExponentialAgreementAutomaton(config7, [0, 1])
        form = canonical_form(protocol, k=1, overhead=1)
        inputs = {p: p % 2 for p in config7.process_ids}
        with pytest.raises(ConfigurationError):
            form.run(inputs)

    def test_epsilon_guarantee_with_overhead_one(self):
        """(k+1)/k <= 1 + eps needs only k = ceil(1/eps)."""
        for epsilon in (1.0, 0.5, 0.25):
            k = k_for_epsilon(epsilon, overhead=1)
            assert (k + 1) / k <= 1 + epsilon + 1e-9
            assert k <= k_for_epsilon(epsilon, overhead=2)
