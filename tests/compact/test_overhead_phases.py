"""The simulation relation through the overhead phases.

Theorem 9's equality ``f_p(state(p, i, E')) = state(p, simul(i), E)``
quantifies over *all* actual rounds ``i``, including phases ``k + 1``
and ``k + 2`` where ``simul`` stalls — there the CORE (hence the
mapped state) must simply not change.  These tests pin that, plus the
adversary-mix coverage of heterogeneous strategy tables speaking the
compact wire format.
"""

import pytest

from repro.adversary import StrategyTable
from repro.adversary.byzantine import MalformedArrayAdversary, SilentAdversary
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.protocol import compact_factory
from repro.runtime.engine import run_protocol

from tests.adversary.compact_attacks import (
    AvalancheEquivocator,
    ForgedIndexAdversary,
)
from tests.conftest import assert_agreement_and_validity


class TestCoreFrozenDuringOverhead:
    @pytest.mark.parametrize("k", [1, 2])
    def test_core_constant_through_phases_k1_k2(self, config4, k):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_protocol(
            compact_factory(k=k, value_alphabet=[0, 1]),
            config4,
            inputs,
            adversary=MalformedArrayAdversary([3]),
            run_full_rounds=3 * (k + 2),
            record_trace=True,
        )
        schedule = result.processes[1].schedule
        for process_id in result.processes:
            previous = None
            for round_number in result.trace.rounds:
                snapshot = result.trace.snapshot(round_number, process_id)
                if not schedule.is_progress_round(round_number):
                    assert snapshot["core"] == previous["core"]
                    assert snapshot["simul"] == previous["simul"]
                previous = snapshot

    def test_simul_snapshot_matches_schedule(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_protocol(
            compact_factory(k=2, value_alphabet=[0, 1]),
            config4,
            inputs,
            run_full_rounds=9,
            record_trace=True,
        )
        schedule = result.processes[1].schedule
        for round_number in result.trace.rounds:
            snapshot = result.trace.snapshot(round_number, 1)
            assert snapshot["simul"] == schedule.simul(round_number)


class TestHeterogeneousCompactAttacks:
    def test_strategy_table_mixing_targeted_attacks(self, config7):
        """One forger and one avalanche equivocator, simultaneously."""
        inputs = {p: p % 2 for p in config7.process_ids}
        adversary = StrategyTable(
            {
                3: ForgedIndexAdversary([]),
                6: AvalancheEquivocator([]),
            }
        )
        result = run_compact_byzantine_agreement(
            config7,
            inputs,
            value_alphabet=[0, 1],
            k=2,
            adversary=adversary,
        )
        assert_agreement_and_validity(result, inputs)

    def test_strategy_table_with_silence_and_forgery(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        adversary = StrategyTable(
            {
                2: SilentAdversary([]),
                5: ForgedIndexAdversary([]),
            }
        )
        result = run_compact_byzantine_agreement(
            config7,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=adversary,
        )
        assert result.decided_values() == {1}
