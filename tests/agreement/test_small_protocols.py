"""Tests for Ben-Or, Turpin–Coan, crusader, and weak agreement."""

import pytest

from repro.adversary import (
    EquivocatingAdversary,
    RandomGarbageAdversary,
    SilentAdversary,
    VoteSplitterAdversary,
)
from repro.agreement.ben_or import ben_or_factory
from repro.agreement.crusader import SENDER_FAULTY, crusader_factory
from repro.agreement.phase_king import PhaseKingProcess, phase_king_rounds
from repro.agreement.turpin_coan import turpin_coan_factory
from repro.agreement.weak import weak_agreement_factory
from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol

from tests.conftest import assert_agreement_and_validity


def king_binary_factory(process_id, config, bit):
    return PhaseKingProcess(process_id, config, bit)


class TestBenOr:
    def test_unanimity_decides_in_one_phase(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        result = run_protocol(
            ben_or_factory(seed=0), config7, inputs, max_rounds=10
        )
        assert result.decided_values() == {1}
        assert result.rounds == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agreement_under_adversaries(self, config7, seed):
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in (
            SilentAdversary([3, 6]),
            VoteSplitterAdversary([3, 6]),
            EquivocatingAdversary([3, 6], 0, 1),
        ):
            result = run_protocol(
                ben_or_factory(seed=seed),
                config7,
                inputs,
                adversary=adversary,
                max_rounds=600,
                seed=seed,
            )
            assert_agreement_and_validity(result, inputs)

    def test_decision_window_is_one_phase(self, config7):
        """All correct processors decide within one phase of the first."""
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_protocol(
            ben_or_factory(seed=5),
            config7,
            inputs,
            adversary=VoteSplitterAdversary([1, 5]),
            max_rounds=600,
            seed=5,
        )
        rounds = sorted(result.decision_rounds.values())
        assert rounds[-1] - rounds[0] <= 2

    def test_binary_only(self, config7):
        with pytest.raises(ConfigurationError):
            run_protocol(
                ben_or_factory(),
                config7,
                {p: "x" for p in config7.process_ids},
                max_rounds=4,
            )


class TestTurpinCoan:
    def make(self, default="z"):
        return turpin_coan_factory(king_binary_factory, default=default)

    def run(self, config, inputs, adversary=None, seed=0):
        return run_protocol(
            self.make(),
            config,
            inputs,
            adversary=adversary,
            max_rounds=2 + phase_king_rounds(config.t) + 1,
            seed=seed,
        )

    def test_unanimity(self, config7):
        inputs = {p: "apple" for p in config7.process_ids}
        result = self.run(config7, inputs)
        assert result.decided_values() == {"apple"}

    def test_agreement_with_mixed_values(self, config7):
        inputs = {p: ["a", "b", "c"][p % 3] for p in config7.process_ids}
        for adversary in (
            RandomGarbageAdversary([2, 6], palette=["a", "b", "q"]),
            EquivocatingAdversary([2, 6], "a", "b"),
            SilentAdversary([2, 6]),
        ):
            result = self.run(config7, inputs, adversary=adversary)
            decided = result.decided_values()
            assert len(decided) == 1
            # decision is a real candidate or the default, never junk
            assert decided <= {"a", "b", "c", "z"}

    def test_unanimous_correct_beats_adversary(self, config7):
        inputs = {p: "apple" for p in config7.process_ids}
        result = self.run(
            config7,
            inputs,
            adversary=EquivocatingAdversary([3, 4], "pear", "plum"),
        )
        assert result.decided_values() == {"apple"}

    def test_two_round_overhead(self, config7):
        inputs = {p: "apple" for p in config7.process_ids}
        result = self.run(config7, inputs)
        assert result.rounds == 2 + phase_king_rounds(config7.t)


class TestCrusader:
    def test_correct_source_all_agree(self, config7):
        inputs = {p: "v" for p in config7.process_ids}
        result = run_protocol(
            crusader_factory(source=3),
            config7,
            inputs,
            adversary=SilentAdversary([6, 7]),
            max_rounds=3,
        )
        assert result.decided_values() == {"v"}
        assert result.rounds == 2

    def test_faulty_source_never_two_values(self, config7):
        inputs = {p: "v" for p in config7.process_ids}
        for adversary in (
            EquivocatingAdversary([3], "x", "y"),
            RandomGarbageAdversary([3], palette=["x", "y", "z"]),
            SilentAdversary([3]),
        ):
            result = run_protocol(
                crusader_factory(source=3),
                config7,
                inputs,
                adversary=adversary,
                max_rounds=3,
            )
            values = {
                decision
                for decision in result.decisions.values()
                if decision is not SENDER_FAULTY
            }
            assert len(values) <= 1

    def test_silent_source_detected(self, config7):
        inputs = {p: "v" for p in config7.process_ids}
        result = run_protocol(
            crusader_factory(source=3),
            config7,
            inputs,
            adversary=SilentAdversary([3]),
            max_rounds=3,
        )
        assert result.decided_values() == {SENDER_FAULTY}


class TestWeakAgreement:
    def run(self, config, inputs, adversary=None):
        return run_protocol(
            weak_agreement_factory(king_binary_factory),
            config,
            inputs,
            adversary=adversary,
            max_rounds=1 + phase_king_rounds(config.t) + 1,
        )

    def test_weak_validity_no_faults(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        result = self.run(config7, inputs)
        assert result.decided_values() == {1}

    def test_agreement_with_faults(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in (
            EquivocatingAdversary([2, 5], 0, 1),
            SilentAdversary([2, 5]),
        ):
            result = self.run(config7, inputs, adversary=adversary)
            assert len(result.decided_values()) == 1

    def test_faults_may_force_default(self, config7):
        """With a fault present, unanimity may legally collapse to the
        default — weak validity imposes nothing here."""
        inputs = {p: 1 for p in config7.process_ids}
        result = self.run(config7, inputs, adversary=SilentAdversary([4]))
        assert len(result.decided_values()) == 1

    def test_binary_only(self, config7):
        with pytest.raises(ConfigurationError):
            self.run(config7, {p: "x" for p in config7.process_ids})
