"""The generality claim: the transform beyond Byzantine agreement.

Section 5.6: "our technique is more general and may therefore have
greater applicability (e.g., reducing the communications cost of the
approximate agreement protocol of Fekete)".  Here approximate
agreement — a protocol with a completely different correctness
predicate — goes through the same canonical-form transformation and
keeps its guarantees with polynomial communication (experiment E6).
"""

import pytest

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.agreement.approximate import ApproximateAgreementAutomaton
from repro.core.predicates import approximate_agreement_predicate
from repro.core.transform import canonical_form, full_information_form

GRID = list(range(0, 33))  # fixed-point values 0..32
INPUTS = {1: 0, 2: 32, 3: 16, 4: 8, 5: 24, 6: 4, 7: 28}


@pytest.fixture
def automaton(config7):
    return ApproximateAgreementAutomaton(config7, GRID, rounds=4)


class TestApproximateThroughTransform:
    def test_fault_free_convergence(self, config7, automaton):
        form = canonical_form(automaton, k=2)
        result = form.run(INPUTS)
        values = [float(v) for v in result.decisions.values()]
        # 4 halvings of a spread of 32, plus grid rounding slack.
        assert max(values) - min(values) <= 32 / 2**4 + 1

    def test_predicate_under_adversaries(self, config7, automaton):
        predicate = approximate_agreement_predicate(epsilon=32 / 2**4 + 1)
        form = canonical_form(automaton, k=2)
        for adversary in (
            SilentAdversary([2, 5]),
            EquivocatingAdversary([2, 5], 0, 32),
        ):
            result = form.run(INPUTS, adversary=adversary)
            assert predicate(
                result.answer_vector(),
                frozenset(result.faulty_ids),
                tuple(INPUTS[p] for p in config7.process_ids),
            )

    def test_matches_full_information_form(self, config7, automaton):
        """Same decisions through the compact and the exponential
        simulation (both reconstruct the same automaton states)."""
        compact_result = canonical_form(automaton, k=2).run(INPUTS)
        fullinfo_result = full_information_form(automaton).run(INPUTS)
        assert compact_result.decisions == fullinfo_result.decisions

    def test_communication_is_polynomial_shaped(self, config7, automaton):
        """The compact form's traffic is far below the exponential
        form's for the same simulated protocol."""
        compact_result = canonical_form(automaton, k=1).run(INPUTS)
        fullinfo_result = full_information_form(automaton).run(INPUTS)
        assert (
            compact_result.metrics.total_bits
            < fullinfo_result.metrics.total_bits
        )

    def test_round_inflation_bounded(self, config7, automaton):
        form = canonical_form(automaton, epsilon=1.0)
        result = form.run(INPUTS)
        assert result.rounds <= (1 + 1.0) * automaton.rounds_to_decide
