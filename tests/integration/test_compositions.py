"""Protocol compositions: the library's pieces stacked on each other.

The paper's framework is compositional by design — subprotocols,
reductions, simulations.  These tests stack real components in ways
the paper's Section 5.6 remarks anticipate (e.g. the Turpin–Coan
reduction "has a similar impact on both protocols" — so it should run
over the compact protocol just as well as over Phase King).
"""

from repro.adversary import (
    EquivocatingAdversary,
    RandomGarbageAdversary,
    SilentAdversary,
)
from repro.agreement.phase_king import PhaseQueenProcess, phase_queen_rounds
from repro.agreement.turpin_coan import turpin_coan_factory
from repro.agreement.weak import weak_agreement_factory
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.runtime.engine import run_protocol


def compact_binary_inner(config):
    """The compact BA protocol as a Turpin–Coan inner binary engine."""
    base = compact_ba_factory(config, [0, 1], default=0, k=1)

    def factory(process_id, inner_config, bit):
        return base(process_id, inner_config, bit)

    return factory


class TestTurpinCoanOverCompact:
    """Multivalued agreement = TC reduction + Corollary 10's binary
    protocol: 2 extra rounds on top of the compact round count."""

    ALPHABET = ["red", "green", "blue"]

    def run(self, config, inputs, adversary=None, seed=0):
        inner_rounds = compact_ba_rounds(config.t, 1)
        return run_protocol(
            turpin_coan_factory(
                compact_binary_inner(config), default="red"
            ),
            config,
            inputs,
            adversary=adversary,
            max_rounds=2 + inner_rounds + 1,
            seed=seed,
        )

    def test_unanimity(self, config7):
        inputs = {p: "blue" for p in config7.process_ids}
        result = self.run(
            config7,
            inputs,
            adversary=EquivocatingAdversary([2, 5], "red", "green"),
        )
        assert result.decided_values() == {"blue"}

    def test_mixed_inputs_agree(self, config7):
        inputs = {
            p: self.ALPHABET[p % 3] for p in config7.process_ids
        }
        for adversary in (
            SilentAdversary([3, 6]),
            RandomGarbageAdversary([3, 6], palette=self.ALPHABET),
        ):
            result = self.run(config7, inputs, adversary=adversary)
            decided = result.decided_values()
            assert len(decided) == 1
            assert decided <= set(self.ALPHABET)

    def test_round_overhead_is_two(self, config7):
        inputs = {p: "blue" for p in config7.process_ids}
        result = self.run(config7, inputs)
        assert result.rounds == 2 + compact_ba_rounds(config7.t, 1)


class TestWeakOverPhaseQueen:
    """Weak agreement with a different inner engine (n >= 4t + 1)."""

    def run(self, config, inputs, adversary=None):
        inner = lambda pid, cfg, bit: PhaseQueenProcess(pid, cfg, bit)  # noqa: E731
        return run_protocol(
            weak_agreement_factory(inner),
            config,
            inputs,
            adversary=adversary,
            max_rounds=1 + phase_queen_rounds(config.t) + 1,
        )

    def test_weak_validity_no_faults(self, config9):
        inputs = {p: 1 for p in config9.process_ids}
        result = self.run(config9, inputs)
        assert result.decided_values() == {1}

    def test_agreement_with_faults(self, config9):
        inputs = {p: p % 2 for p in config9.process_ids}
        result = self.run(
            config9, inputs, adversary=EquivocatingAdversary([4, 8], 0, 1)
        )
        assert len(result.decided_values()) == 1


class TestWeakOverCompact:
    """Weak agreement whose inner engine is the compact protocol."""

    def test_agreement_and_weak_validity(self, config7):
        inner = compact_binary_inner(config7)
        rounds = 1 + compact_ba_rounds(config7.t, 1) + 1
        inputs = {p: 1 for p in config7.process_ids}
        result = run_protocol(
            weak_agreement_factory(inner),
            config7,
            inputs,
            max_rounds=rounds,
        )
        assert result.decided_values() == {1}

        mixed = {p: p % 2 for p in config7.process_ids}
        result = run_protocol(
            weak_agreement_factory(inner),
            config7,
            mixed,
            adversary=EquivocatingAdversary([2, 5], 0, 1),
            max_rounds=rounds,
        )
        assert len(result.decided_values()) == 1


class TestExtendedComparison:
    def test_extended_rows_present(self):
        from repro.analysis.compare import measured_comparison

        rows = measured_comparison(
            1,
            lambda faulty: EquivocatingAdversary(faulty, 0, 1),
            extended=True,
        )
        names = [row["protocol"] for row in rows]
        assert any("Phase King" in name for name in names)
        assert any("Dolev-Strong" in name for name in names)
        for row in rows:
            assert len(row["decisions"]) == 1
