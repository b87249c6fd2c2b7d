"""StrategyTable mixing fault *models*: Byzantine next to crash.

A realistic deployment fails heterogeneously — one node Byzantine, one
merely crashing.  The table must route the end-of-round hook to
ghost-running sub-strategies so the crashing node still follows its
protocol faithfully until its crash round.
"""

from repro.adversary import StrategyTable, VoteSplitterAdversary
from repro.adversary.crash import CrashAdversary
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.protocol import compact_factory
from repro.runtime.engine import run_protocol

from tests.conftest import assert_agreement_and_validity


class TestMixedModels:
    def test_byzantine_plus_crash_on_avalanche(self, config7):
        inputs = {p: "v" for p in config7.process_ids}
        crash = CrashAdversary({6: 2}, avalanche_factory(), cut_fraction=0.5)
        table = StrategyTable(
            {3: VoteSplitterAdversary([]), 6: crash}
        )
        result = run_protocol(
            avalanche_factory(),
            config7,
            inputs,
            adversary=table,
            run_full_rounds=4,
        )
        # Unanimous correct input beats both failure styles.
        assert result.decided_values() == {"v"}

    def test_crash_ghost_actually_steps(self, config7):
        """The forwarded hook keeps the ghost alive: before its crash
        round it must have processed rounds like a real processor."""
        inputs = {p: p % 2 for p in config7.process_ids}
        factory = compact_factory(k=1, value_alphabet=[0, 1])
        crash = CrashAdversary({6: 3}, factory, cut_fraction=1.0)
        table = StrategyTable({3: VoteSplitterAdversary([]), 6: crash})
        run_protocol(
            factory,
            config7,
            inputs,
            adversary=table,
            run_full_rounds=4,
        )
        ghost = crash.ghost(6)
        assert ghost is not None
        assert ghost._last_round >= 2  # it really took steps

    def test_byzantine_plus_crash_on_compact_ba(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}

        def make_adversary():
            factory = compact_factory(k=1, value_alphabet=[0, 1])
            return StrategyTable(
                {
                    3: VoteSplitterAdversary([]),
                    6: CrashAdversary({6: 2}, factory, cut_fraction=0.5),
                }
            )

        result = run_compact_byzantine_agreement(
            config7,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=make_adversary(),
        )
        assert_agreement_and_validity(result, inputs)
