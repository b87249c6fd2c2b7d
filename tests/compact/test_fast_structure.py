"""Structural tests for the fast variant's k + 1 block layout."""

import pytest

from repro.arrays.value_array import array_depth
from repro.compact.protocol import compact_factory
from repro.runtime.engine import run_protocol
from repro.types import is_bottom


def run_fast_traced(config, inputs, k, rounds):
    return run_protocol(
        compact_factory(k=k, value_alphabet=[0, 1], overhead=1),
        config,
        inputs,
        run_full_rounds=rounds,
        record_trace=True,
    )


@pytest.fixture
def traced(config9):
    inputs = {p: p % 2 for p in config9.process_ids}
    return run_fast_traced(config9, inputs, k=2, rounds=9)


class TestFastBlockLayout:
    def test_block_length_is_k_plus_one(self, traced):
        schedule = traced.processes[1].schedule
        assert schedule.block_length == 3

    def test_rebroadcast_at_phase_k_plus_one(self, traced):
        """k = 2: round 3 is the rebroadcast (depth-2 CORE)."""
        for envelope in traced.trace.messages_in_round(3):
            if envelope.sender in traced.processes:
                assert array_depth(envelope.payload.main, 9) == 2

    def test_no_dedicated_agreement_round(self, traced):
        """Unlike overhead 2, round 4 (phase 1 of block 2) carries the
        new batch's first votes AND performs the rebase — there is no
        votes-only round."""
        round4 = [
            e for e in traced.trace.messages_in_round(4)
            if e.sender in traced.processes
        ][0]
        assert is_bottom(round4.payload.main)  # rebase round: no main
        assert [b for b, _ in round4.payload.votes] == [2]  # votes ride along

    def test_simul_advances_at_phase_one(self, traced):
        """Phase 1 of block 2 (round 4) is a progress round: simul
        jumps from 2 to 3 even though no main component was sent."""
        snap3 = traced.trace.snapshot(3, 1)
        snap4 = traced.trace.snapshot(4, 1)
        assert snap3["simul"] == 2
        assert snap4["simul"] == 3

    def test_rebased_core_is_index_vector(self, traced):
        snap4 = traced.trace.snapshot(4, 1)
        core = snap4["core"]
        assert array_depth(core, 9) == 1
        assert all(isinstance(leaf, int) for leaf in core)

    def test_out_table_filled_at_rebase_round(self, traced):
        """Fast avalanche's round-1 decision: every correct sender's
        OUT slot is already agreed in the batch's very first round."""
        process = traced.processes[1]
        table = process.expansion.out_tables().get(2, {})
        for sender in traced.processes:
            assert sender in table
