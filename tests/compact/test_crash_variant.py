"""Tests for the benign-fault compact variant (experiment E8)."""

import pytest

from repro.adversary.base import Adversary
from repro.adversary.crash import CrashAdversary
from repro.adversary.omission import OmissionAdversary
from repro.compact.crash_variant import (
    CRASHED,
    CrashCompactProcess,
    CrashExpansion,
    CrashPayload,
    crash_compact_factory,
    crash_sizer,
    flooding_decision_rule,
)
from repro.errors import ConfigurationError, ProtocolViolation
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig, is_bottom


ALPHABET = [0, 1, 2]


def run_crash(config, inputs, crash_rounds, k=2, cut=0.5, seed=0):
    factory = crash_compact_factory(k=k, value_alphabet=ALPHABET, t=config.t)
    adversary = CrashAdversary(crash_rounds, factory, cut_fraction=cut)
    return run_protocol(
        factory,
        config,
        inputs,
        adversary=adversary,
        max_rounds=config.t + 2,
        sizer=crash_sizer(config, len(ALPHABET)),
        seed=seed,
    )


@pytest.fixture
def inputs(config7):
    return {p: p % 3 for p in config7.process_ids}


class TestNoRoundOverhead:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_decides_in_exactly_t_plus_one_rounds(self, config7, inputs, k):
        result = run_crash(config7, inputs, {3: 1, 6: 2}, k=k)
        assert result.rounds == config7.t + 1
        assert all(
            r == config7.t + 1 for r in result.decision_rounds.values()
        )

    def test_simul_equals_round(self, config7, inputs):
        factory = crash_compact_factory(k=2, value_alphabet=ALPHABET, t=config7.t)
        result = run_protocol(
            factory,
            config7,
            inputs,
            max_rounds=config7.t + 2,
            record_trace=True,
        )
        for round_number in result.trace.rounds:
            snapshot = result.trace.snapshot(round_number, 1)
            assert snapshot["simul"] == round_number


class TestCorrectness:
    @pytest.mark.parametrize("cut", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("crash_rounds", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_agreement_over_crash_schedules(
        self, config7, inputs, cut, crash_rounds
    ):
        result = run_crash(
            config7,
            inputs,
            {2: crash_rounds[0], 7: crash_rounds[1]},
            cut=cut,
        )
        assert len(result.decided_values()) == 1

    def test_validity_on_unanimity(self, config7):
        inputs = {p: 2 for p in config7.process_ids}
        result = run_crash(config7, inputs, {1: 1, 4: 2})
        assert result.decided_values() == {2}

    def test_omission_model(self, config7, inputs):
        factory = crash_compact_factory(k=2, value_alphabet=ALPHABET, t=config7.t)
        for probability in (0.2, 0.5, 0.9):
            adversary = OmissionAdversary([2, 5], factory, probability)
            result = run_protocol(
                factory,
                config7,
                inputs,
                adversary=adversary,
                max_rounds=config7.t + 2,
                seed=11,
            )
            assert len(result.decided_values()) == 1

    def test_fault_free(self, config7, inputs):
        factory = crash_compact_factory(k=2, value_alphabet=ALPHABET, t=config7.t)
        result = run_protocol(
            factory, config7, inputs, max_rounds=config7.t + 2
        )
        assert len(result.decided_values()) == 1
        # Fault-free, all inputs survive flooding; min by repr of 0..2.
        assert result.decided_values() == {0}


class TestCrashExpansion:
    def test_crashed_passes_through(self, config4):
        expansion = CrashExpansion(config4, ALPHABET)
        assert expansion.expand_scalar(1, CRASHED) is CRASHED
        assert expansion.expand_scalar(3, CRASHED) is CRASHED

    def test_value_identity_at_block_one(self, config4):
        expansion = CrashExpansion(config4, ALPHABET)
        assert expansion.expand_scalar(1, 2) == 2
        assert is_bottom(expansion.expand_scalar(1, 9))

    def test_binding_lookup(self, config4):
        expansion = CrashExpansion(config4, ALPHABET)
        expansion.learn((2, 3), (0, 1, CRASHED, 2))
        assert expansion.expand_scalar(2, 3) == (0, 1, CRASHED, 2)
        assert is_bottom(expansion.expand_scalar(2, 1))

    def test_conflicting_binding_raises(self, config4):
        expansion = CrashExpansion(config4, ALPHABET)
        expansion.learn((2, 3), (0, 1, 1, 2))
        with pytest.raises(ProtocolViolation):
            expansion.learn((2, 3), (1, 1, 1, 2))

    def test_learn_reports_novelty(self, config4):
        expansion = CrashExpansion(config4, ALPHABET)
        assert expansion.learn((2, 3), (0, 0, 0, 0))
        assert not expansion.learn((2, 3), (0, 0, 0, 0))


class TestPatchesFailClosed:
    """``patches`` is a field a faulty sender controls: one reader for
    the receiver and the sizer, and a malformed field or entry is no
    patch — 0 bits, never an exception."""

    @pytest.mark.parametrize("patches", [None, 5, (1, 2), ((1,),), [((2, 3), 0)]])
    def test_malformed_field_is_no_patch(self, config4, patches):
        payload = CrashPayload(main=0, patches=patches)
        assert payload.patch_entries(config4.n) == ()
        measure = crash_sizer(config4, len(ALPHABET))
        assert measure(payload) == measure(CrashPayload(main=0))

    def test_malformed_entries_are_dropped(self, config4):
        good = ((2, 3), (0, 1, 0, 1))
        payload = CrashPayload(
            main=0,
            patches=(
                good,
                ((2, 9), (0, 1, 0, 1)),  # no such processor
                ((True, 3), (0, 1, 0, 1)),
                (("2", 3), (0, 1, 0, 1)),
                ((2, 3, 4), (0, 1, 0, 1)),
                ((2, 3),),
            ),
        )
        assert payload.patch_entries(config4.n) == (good,)
        measure = crash_sizer(config4, len(ALPHABET))
        assert measure(payload) == measure(CrashPayload(main=0, patches=(good,)))
        assert measure(payload) > measure(CrashPayload(main=0))

    def test_receiver_survives_malformed_patches(self, config7, inputs):
        class Mangler(Adversary):
            def outgoing(self, round_number, sender, context):
                payload = CrashPayload(main=0, patches=(1, 2))
                if round_number % 2:
                    payload = CrashPayload(main=0, patches=None)
                return {p: payload for p in self.config.process_ids}

        result = run_protocol(
            crash_compact_factory(k=2, value_alphabet=ALPHABET, t=config7.t),
            config7,
            inputs,
            adversary=Mangler([2, 5]),
            max_rounds=config7.t + 2,
            sizer=crash_sizer(config7, len(ALPHABET)),
            meter_adversary=True,
        )
        assert len(result.decided_values()) == 1


class TestFloodingRule:
    def test_decides_canonical_min(self):
        rule = flooding_decision_rule(t=1)
        state = ((1, 2), (CRASHED, 0))
        assert rule(state, 2, 1) == 0

    def test_waits_for_horizon(self):
        rule = flooding_decision_rule(t=2)
        assert rule((0, 1), 1, 1) is BOTTOM

    def test_all_crashed_raises(self):
        rule = flooding_decision_rule(t=0)
        with pytest.raises(ProtocolViolation):
            rule((CRASHED, CRASHED), 1, 1)


class TestConstruction:
    def test_input_in_alphabet_required(self, config7):
        with pytest.raises(ConfigurationError):
            CrashCompactProcess(1, config7, 99, k=2, value_alphabet=ALPHABET)

    def test_k_positive(self, config7):
        with pytest.raises(ConfigurationError):
            CrashCompactProcess(1, config7, 0, k=0, value_alphabet=ALPHABET)
