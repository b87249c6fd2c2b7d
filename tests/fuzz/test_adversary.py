"""FuzzAdversary: seed determinism, mask semantics, payload shapes."""

import numpy as np
import pytest

from repro.adversary.base import RoundContext
from repro.fuzz.adversary import BEHAVIOURS, FuzzAdversary
from repro.runtime.engine import run_protocol
from repro.runtime.rng import derive_rng
from repro.types import SystemConfig


def _bound(config, faulty, seed, **kwargs):
    adversary = FuzzAdversary(faulty, palette=(0, 1), **kwargs)
    adversary.bind(config, derive_rng(seed, "adversary"))
    return adversary


def _context(config, round_number=1, outgoing=None):
    outgoing = outgoing if outgoing is not None else {
        1: {pid: 0 for pid in config.process_ids},
        3: {pid: 1 for pid in config.process_ids},
        4: {pid: 1 for pid in config.process_ids},
    }
    inputs = {pid: pid % 2 for pid in config.process_ids}
    return RoundContext(config, round_number, outgoing, {}, inputs)


class TestDeterminism:
    def test_same_seed_same_attack(self):
        config = SystemConfig(n=4, t=1)
        rows = []
        for _ in range(2):
            adversary = _bound(config, [2], seed=17)
            context = _context(config)
            rows.append([
                adversary.outgoing(round_number, 2, context)
                for round_number in range(1, 6)
            ])
        assert rows[0] == rows[1]

    def test_different_seeds_differ_somewhere(self):
        config = SystemConfig(n=4, t=1)
        attacks = []
        for seed in (1, 2):
            adversary = _bound(config, [2], seed=seed)
            context = _context(config)
            attacks.append([
                adversary.outgoing(round_number, 2, context)
                for round_number in range(1, 9)
            ])
        assert attacks[0] != attacks[1]

    def test_full_execution_twice_is_identical(self):
        from repro.avalanche.protocol import avalanche_factory

        config = SystemConfig(n=4, t=1)
        inputs = {1: 1, 2: 0, 3: 1, 4: 1}
        results = [
            run_protocol(
                avalanche_factory(),
                config,
                inputs,
                adversary=FuzzAdversary([3], palette=(0, 1)),
                run_full_rounds=6,
                seed=23,
                record_trace=True,
            )
            for _ in range(2)
        ]
        assert results[0].decisions == results[1].decisions
        assert results[0].decision_rounds == results[1].decision_rounds
        first, second = (result.trace for result in results)
        assert first.envelopes == second.envelopes
        assert first.rounds == second.rounds == list(range(1, 7))
        for round_number in first.rounds:
            assert first.snapshots_in_round(
                round_number
            ) == second.snapshots_in_round(round_number)


class TestMask:
    def test_masked_slot_is_silent(self):
        config = SystemConfig(n=4, t=1)
        adversary = _bound(config, [2], seed=5, mask=[(1, 2), (3, 2)])
        context = _context(config)
        assert adversary.outgoing(1, 2, context) == {}

    def test_mask_does_not_shift_other_rounds(self):
        """Masking round 1 leaves rounds 2..k drawing identically."""
        config = SystemConfig(n=4, t=1)
        plain = _bound(config, [2], seed=5)
        masked = _bound(config, [2], seed=5, mask=[(1, 2)])
        context = _context(config)
        plain_rows = [
            plain.outgoing(round_number, 2, context)
            for round_number in range(1, 6)
        ]
        masked_rows = [
            masked.outgoing(round_number, 2, context)
            for round_number in range(1, 6)
        ]
        assert masked_rows[0] == {}
        assert masked_rows[1:] == plain_rows[1:]

    def test_mask_normalised_to_frozenset(self):
        adversary = FuzzAdversary([2], mask=[(1, 2), (1, 2)])
        assert adversary.mask == frozenset({(1, 2)})


class TestBehaviours:
    def test_menu_is_stable(self):
        # The RNG indexes into this tuple; reordering it would silently
        # re-map every recorded seed to a different attack.
        assert BEHAVIOURS == (
            "silent", "omit", "equivocate", "garbage", "forge", "mimic"
        )

    def test_equivocate_splits_recipients(self):
        config = SystemConfig(n=4, t=1)
        adversary = _bound(config, [2], seed=0)
        context = _context(config)
        messages = adversary._behave_equivocate(2, 2, context)
        assert set(messages) == set(config.process_ids)
        assert all(value in (0, 1) for value in messages.values())

    def test_garbage_is_malformed(self):
        config = SystemConfig(n=4, t=1)
        adversary = _bound(config, [2], seed=0)
        context = _context(config)
        messages = adversary._behave_garbage(2, 2, context)
        assert set(messages) == set(config.process_ids)

    def test_forge_reuses_interning(self):
        """Forged copies of well-shaped arrays stay well-shaped."""
        from repro.arrays.store import shared_store
        from repro.arrays.value_array import validate_array

        config = SystemConfig(n=4, t=1)
        store = shared_store(config.n)
        template = store.intern(tuple(0 for _ in range(config.n)))
        outgoing = {
            1: {pid: template for pid in config.process_ids},
            3: {pid: template for pid in config.process_ids},
        }
        adversary = _bound(config, [2], seed=9)
        context = _context(config, round_number=2, outgoing=outgoing)
        forged = adversary._behave_forge(2, 2, context)
        for message in forged.values():
            assert validate_array(
                message, config.n, depth=1, leaf_ok=lambda leaf: leaf in (0, 1)
            )

    def test_mimic_replays_correct_row(self):
        config = SystemConfig(n=4, t=1)
        adversary = _bound(config, [2], seed=3)
        context = _context(config)
        messages = adversary._behave_mimic(1, 2, context)
        legal_rows = [
            {pid: 0 for pid in config.process_ids},
            {pid: 1 for pid in config.process_ids},
        ]
        assert messages in legal_rows


class TestCrashDowngrade:
    def test_crashed_processor_goes_silent_forever(self):
        config = SystemConfig(n=4, t=1)
        # Find a seed whose faulty processor crash-downgrades.
        for seed in range(40):
            adversary = _bound(config, [2], seed=seed)
            if adversary._crash_round:
                break
        else:
            pytest.fail("no crash downgrade in 40 seeds (probability bug?)")
        crash_round = adversary._crash_round[2]
        context = _context(config)
        for round_number in range(1, crash_round + 4):
            messages = adversary.outgoing(round_number, 2, context)
            if round_number > crash_round:
                assert messages == {}

    def test_pre_crash_rounds_mimic_one_correct_processor(self):
        config = SystemConfig(n=4, t=1)
        for seed in range(40):
            adversary = _bound(config, [2], seed=seed)
            if adversary._crash_round.get(2, 0) >= 3:
                break
        else:
            pytest.skip("no late-crashing seed in range")
        context = _context(config)
        row = adversary.outgoing(1, 2, context)
        assert row in (
            {pid: 0 for pid in config.process_ids},
            {pid: 1 for pid in config.process_ids},
        )


def test_bind_rejects_too_many_faulty():
    from repro.errors import ConfigurationError

    config = SystemConfig(n=4, t=1)
    adversary = FuzzAdversary([1, 2])
    with pytest.raises(ConfigurationError):
        adversary.bind(config, np.random.default_rng(0))
