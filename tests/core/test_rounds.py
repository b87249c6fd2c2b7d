"""Tests for the round arithmetic of Section 5.1 — including Table 1."""

import pytest
from hypothesis import given, strategies as st

from repro.core.rounds import (
    BlockSchedule,
    actual_rounds_for,
    block,
    k_for_epsilon,
    overhead_factor,
    phase,
    prior,
    simul,
)
from repro.errors import ConfigurationError

# Table 1 of the paper, reconstructed from the definitions (the printed
# table in our source text is OCR-damaged; the caption's invariants —
# 14 actual rounds, 8 simulated rounds, k = 2 — pin these values).
TABLE_1 = {
    "r":     [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
    "block": [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4],
    "prior": [0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12],
    "phase": [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2],
    "simul": [1, 2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7, 8],
}


class TestTable1:
    def test_block_row(self):
        assert [block(r, 2) for r in TABLE_1["r"]] == TABLE_1["block"]

    def test_prior_row(self):
        assert [prior(r, 2) for r in TABLE_1["r"]] == TABLE_1["prior"]

    def test_phase_row(self):
        assert [phase(r, 2) for r in TABLE_1["r"]] == TABLE_1["phase"]

    def test_simul_row(self):
        assert [simul(r, 2) for r in TABLE_1["r"]] == TABLE_1["simul"]

    def test_caption_invariant(self):
        """14 actual rounds simulate exactly 8 rounds at k = 2."""
        assert simul(14, 2) == 8


class TestRoundFunctions:
    @given(st.integers(1, 500), st.integers(1, 6))
    def test_phase_in_range(self, round_number, k):
        assert 1 <= phase(round_number, k) <= k + 2

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_prior_is_last_round_of_previous_block(self, round_number, k):
        assert prior(round_number, k) == (block(round_number, k) - 1) * (k + 2)

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_simul_non_decreasing(self, round_number, k):
        assert simul(round_number + 1, k) >= simul(round_number, k)

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_simul_gains_at_most_one(self, round_number, k):
        assert simul(round_number + 1, k) - simul(round_number, k) in (0, 1)

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_simul_is_onto(self, target, k):
        """Every simulated round count is reached — scaling is onto."""
        round_number = actual_rounds_for(target, k)
        assert simul(round_number, k) == target

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_exactly_k_progress_rounds_per_block(self, round_number, k):
        schedule = BlockSchedule(k)
        start = schedule.first_round_of_block(schedule.block(round_number))
        progress = sum(
            1
            for r in range(start, start + schedule.block_length)
            if schedule.is_progress_round(r)
        )
        assert progress == k

    def test_rounds_are_one_based(self):
        with pytest.raises(ConfigurationError):
            block(0, 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            phase(1, 0)


class TestActualRounds:
    def test_single_block(self):
        assert actual_rounds_for(2, k=2) == 2

    def test_block_boundary(self):
        # 3 simulated rounds with k = 2: one full block (4) plus 1.
        assert actual_rounds_for(3, k=2) == 5

    def test_exact_multiple(self):
        assert actual_rounds_for(4, k=2) == 6  # 4 + 2 tail progress

    def test_overhead_one(self):
        assert actual_rounds_for(3, k=2, overhead=1) == 4

    @given(st.integers(1, 100), st.integers(1, 6))
    def test_corollary10_guarantee(self, simulated, k):
        """actual <= (1 + 2/k) * simulated — the Corollary 10 bound."""
        actual = actual_rounds_for(simulated, k)
        assert actual <= (1 + 2 / k) * simulated

    @given(st.integers(1, 100), st.integers(1, 6))
    def test_last_round_is_progress(self, simulated, k):
        """The decision round always lands on a progress phase."""
        schedule = BlockSchedule(k)
        assert schedule.is_progress_round(schedule.actual_rounds_for(simulated))


class TestEpsilon:
    def test_paper_values(self):
        assert k_for_epsilon(1.0) == 2
        assert k_for_epsilon(0.5) == 4
        assert k_for_epsilon(2.0) == 1

    def test_overhead_one_halves_k(self):
        assert k_for_epsilon(1.0, overhead=1) == 1

    @given(st.floats(min_value=0.05, max_value=4.0))
    def test_factor_within_epsilon(self, epsilon):
        k = k_for_epsilon(epsilon)
        assert overhead_factor(k) <= 1 + epsilon + 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            k_for_epsilon(0)


class TestBlockSchedule:
    def test_structural_queries_standard(self):
        schedule = BlockSchedule(k=2)
        assert schedule.is_progress_round(1)
        assert schedule.is_progress_round(2)
        assert schedule.is_rebroadcast_round(3)
        assert schedule.is_agreement_start_round(4)
        assert schedule.is_block_start(5)

    def test_structural_queries_fast(self):
        schedule = BlockSchedule(k=2, overhead=1)
        assert schedule.block_length == 3
        assert schedule.is_rebroadcast_round(3)
        assert schedule.is_agreement_start_round(4)  # next block's phase 1
        assert not schedule.is_agreement_start_round(1)

    def test_table_method_matches_module_functions(self):
        schedule = BlockSchedule(k=2)
        rows = schedule.table(14)
        assert [row["simul"] for row in rows] == TABLE_1["simul"]

    def test_first_round_of_block(self):
        schedule = BlockSchedule(k=3)
        assert schedule.first_round_of_block(1) == 1
        assert schedule.first_round_of_block(2) == 6

    def test_progress_rounds_iterator(self):
        schedule = BlockSchedule(k=2)
        assert list(schedule.progress_rounds(8)) == [1, 2, 5, 6]

    def test_invalid_overhead_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockSchedule(k=2, overhead=3)
        with pytest.raises(ConfigurationError):
            BlockSchedule(k=2, overhead=-1)


class TestZeroOverhead:
    """``overhead=0``: the benign and authenticated models, where every
    round is a progress round and nothing is re-broadcast or agreed."""

    def test_table_rows(self):
        rows = BlockSchedule(k=2, overhead=0).table(6)
        assert [row["block"] for row in rows] == [1, 1, 2, 2, 3, 3]
        assert [row["prior"] for row in rows] == [0, 0, 2, 2, 4, 4]
        assert [row["phase"] for row in rows] == [1, 2, 1, 2, 1, 2]
        assert [row["simul"] for row in rows] == [1, 2, 3, 4, 5, 6]

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_simul_is_the_round(self, round_number, k):
        schedule = BlockSchedule(k, overhead=0)
        assert schedule.block_length == k
        assert schedule.simul(round_number) == round_number
        assert schedule.actual_rounds_for(round_number) == round_number
        assert actual_rounds_for(round_number, k, overhead=0) == round_number

    @given(st.integers(1, 500), st.integers(1, 6))
    def test_every_round_is_progress_and_only_that(self, round_number, k):
        schedule = BlockSchedule(k, overhead=0)
        assert schedule.is_progress_round(round_number)
        assert not schedule.is_rebroadcast_round(round_number)
        assert not schedule.is_agreement_start_round(round_number)
        assert schedule.is_block_start(round_number) == (
            (round_number - 1) % k == 0
        )

    def test_block_starts(self):
        schedule = BlockSchedule(k=3, overhead=0)
        assert schedule.first_round_of_block(2) == 4
        assert list(schedule.progress_rounds(5)) == [1, 2, 3, 4, 5]
        assert overhead_factor(3, overhead=0) == 1.0
