"""Statistical behaviour of Ben-Or: adversaries slow it, never break it.

Randomized termination is a distribution, not a bound; these tests
characterise it over fixed seed sets (fully reproducible) and verify
the qualitative claims: fault-free near-unanimity terminates in one
phase, adversarial vote-splitting stretches the tail but agreement
still holds on every single run.
"""

import statistics

from repro.adversary import SilentAdversary, VoteSplitterAdversary
from repro.agreement.ben_or import ben_or_factory
from repro.runtime.engine import run_protocol

from tests.conftest import assert_agreement_and_validity

SEEDS = list(range(12))


def run_ben_or(config, inputs, adversary_maker, seed):
    return run_protocol(
        ben_or_factory(seed=seed),
        config,
        inputs,
        adversary=adversary_maker(),
        max_rounds=800,
        seed=seed,
    )


class TestDistributions:
    def test_unanimous_always_one_phase(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        rounds = []
        for seed in SEEDS:
            result = run_ben_or(
                config7, inputs, lambda: VoteSplitterAdversary([3, 6]), seed
            )
            assert result.decided_values() == {1}
            rounds.append(result.rounds)
        assert max(rounds) == 2  # one two-round phase, every seed

    def test_splitter_slows_but_never_breaks(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        silent_rounds, splitter_rounds = [], []
        for seed in SEEDS:
            silent = run_ben_or(
                config7, inputs, lambda: SilentAdversary([3, 6]), seed
            )
            splitter = run_ben_or(
                config7, inputs, lambda: VoteSplitterAdversary([3, 6]), seed
            )
            assert_agreement_and_validity(silent, inputs)
            assert_agreement_and_validity(splitter, inputs)
            silent_rounds.append(silent.rounds)
            splitter_rounds.append(splitter.rounds)
        # The splitter actively starves quorums: its median round count
        # cannot beat the silent adversary's.
        assert statistics.median(splitter_rounds) >= statistics.median(
            silent_rounds
        )

    def test_rounds_always_even(self, config7):
        """Decisions land at phase ends (every phase = 2 rounds)."""
        inputs = {p: p % 2 for p in config7.process_ids}
        for seed in SEEDS[:6]:
            result = run_ben_or(
                config7, inputs, lambda: VoteSplitterAdversary([1, 4]), seed
            )
            assert result.rounds % 2 == 0
