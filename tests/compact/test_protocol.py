"""Structural and invariant tests for Protocol 3."""

import pytest

from repro.arrays.value_array import array_depth, array_leaves, is_index_scalar
from repro.compact.protocol import CompactProcess, compact_factory
from repro.errors import ConfigurationError
from repro.runtime.engine import run_protocol
from repro.types import is_bottom

from tests.conftest import byzantine_adversaries


def run_compact(config, inputs, k=2, rounds=10, adversary=None, seed=0, **kwargs):
    return run_protocol(
        compact_factory(k=k, value_alphabet=[0, 1], **kwargs),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=rounds,
        record_trace=True,
        seed=seed,
    )


class TestConstruction:
    def test_input_must_be_in_alphabet(self, config4):
        with pytest.raises(ConfigurationError):
            CompactProcess(1, config4, 7, k=2, value_alphabet=[0, 1])

    def test_fast_overhead_needs_4t_plus_1(self, config7):
        with pytest.raises(ConfigurationError):
            CompactProcess(1, config7, 0, k=2, value_alphabet=[0, 1], overhead=1)


class TestCoreShapes:
    def test_core_depth_tracks_phase(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=9)
        schedule = result.processes[1].schedule
        for round_number in result.trace.rounds:
            snapshot = result.trace.snapshot(round_number, 1)
            expected = min(schedule.phase(round_number), schedule.k)
            assert array_depth(snapshot["core"], config4.n) == expected

    def test_block1_core_leaves_are_values(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=2)
        core = result.trace.snapshot(2, 1)["core"]
        assert all(leaf in (0, 1) for leaf in array_leaves(core))

    def test_later_block_core_leaves_are_indices(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=6)
        core = result.trace.snapshot(6, 1)["core"]  # block 2, phase 2
        assert all(
            is_index_scalar(leaf, config4.n) for leaf in array_leaves(core)
        )

    def test_core_boundary_tracks_block(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=9)
        for round_number in result.trace.rounds:
            snapshot = result.trace.snapshot(round_number, 1)
            schedule = result.processes[1].schedule
            if schedule.is_progress_round(round_number):
                assert snapshot["core_boundary"] == schedule.block(round_number)


class TestMessageStructure:
    def test_no_main_component_in_rebase_and_agreement_rounds(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=9)
        # k=2: phase k+2 is round 4; phase 1 of block 2 is round 5.
        for round_number in (4, 5):
            for envelope in result.trace.messages_in_round(round_number):
                if envelope.sender in result.processes:
                    assert is_bottom(envelope.payload.main)

    def test_rebroadcast_round_carries_depth_k_core(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=3)
        for envelope in result.trace.messages_in_round(3):
            if envelope.sender in result.processes:
                assert array_depth(envelope.payload.main, config4.n) == 2

    def test_avalanche_components_present_from_agreement_round(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact(config4, inputs, k=2, rounds=4)
        round3 = result.trace.messages_in_round(3)[0]
        round4 = [
            e for e in result.trace.messages_in_round(4)
            if e.sender in result.processes
        ][0]
        assert round3.payload.votes == ()
        assert [boundary for boundary, _ in round4.payload.votes] == [2]


class TestSimulFidelityFaultFree:
    def test_full_state_matches_real_fullinfo_run(self, config4):
        """FULL_STATE at simulated round j == the state a real
        full-information execution reaches at round j (fault-free the
        reference execution is unique)."""
        from repro.fullinfo.protocol import full_information_factory

        inputs = {p: p % 2 for p in config4.process_ids}
        compact = run_compact(
            config4, inputs, k=2, rounds=10, expose_full_state=True
        )
        reference = run_protocol(
            full_information_factory(value_alphabet=[0, 1]),
            config4,
            inputs,
            run_full_rounds=6,
            record_trace=True,
        )
        for round_number in compact.trace.rounds:
            for process_id in config4.process_ids:
                snapshot = compact.trace.snapshot(round_number, process_id)
                if "full_state" not in snapshot:
                    continue
                simulated = snapshot["simul"]
                expected = reference.trace.snapshot(simulated, process_id)[
                    "state"
                ]
                assert snapshot["full_state"] == expected


class TestInvariantsUnderAttack:
    @pytest.mark.parametrize("k", [1, 2])
    def test_core_always_expandable(self, config4, k):
        """The paper's step-5 invariant survives every adversary.

        CompactProcess raises ProtocolViolation from its own assert if
        the invariant breaks, so a clean run is the assertion.
        """
        inputs = {p: p % 2 for p in config4.process_ids}
        for faulty in [(1,), (3,)]:
            for adversary in byzantine_adversaries(list(faulty)):
                result = run_compact(
                    config4, inputs, k=k, rounds=12, adversary=adversary
                )
                for process in result.processes.values():
                    assert not is_bottom(process.full_state())

    def test_out_agreement_across_correct_processors(self, config7):
        """All correct processors agree on every decided OUT slot."""
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in byzantine_adversaries([2, 6]):
            result = run_compact(
                config7, inputs, k=1, rounds=12, adversary=adversary
            )
            merged = {}
            for process in result.processes.values():
                tables = process.expansion.out_tables()
                for boundary in (2, 3, 4):
                    for subject, value in tables.get(boundary, {}).items():
                        key = (boundary, subject)
                        if key in merged:
                            assert merged[key] == value, key
                        else:
                            merged[key] = value
