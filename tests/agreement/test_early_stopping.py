"""Tests for early-stopping crash consensus (min(f+2, t+1) rounds)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.crash import CrashAdversary
from repro.agreement.early_stopping import early_stopping_factory
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig


def early_stopping_rounds(f, t):
    """Reischuk–Strong: the decision-round bound for ``f`` actual crashes."""
    return min(f + 2, t + 1)


def run_early(config, inputs, crash_rounds=None, cut=0.5, seed=0):
    factory = early_stopping_factory()
    adversary = (
        CrashAdversary(crash_rounds, factory, cut_fraction=cut)
        if crash_rounds
        else None
    )
    return run_protocol(
        factory,
        config,
        inputs,
        adversary=adversary,
        max_rounds=config.t + 2,
        seed=seed,
    )


@pytest.fixture
def big_config():
    return SystemConfig(n=7, t=5)  # crash model: any t < n works


class TestEarlyStopping:
    def test_fault_free_decides_in_two_rounds(self, big_config):
        """f = 0: decision at round 2 even though t = 5."""
        inputs = {p: p % 3 for p in big_config.process_ids}
        result = run_early(big_config, inputs)
        assert result.rounds == 2
        assert all(r == 2 for r in result.decision_rounds.values())
        assert len(result.decided_values()) == 1

    def test_one_crash_decides_by_round_three(self, big_config):
        inputs = {p: p % 3 for p in big_config.process_ids}
        result = run_early(big_config, inputs, crash_rounds={3: 1})
        assert max(result.decision_rounds.values()) <= early_stopping_rounds(
            1, big_config.t
        )
        assert len(result.decided_values()) == 1

    def test_bound_formula(self):
        assert early_stopping_rounds(0, 5) == 2
        assert early_stopping_rounds(2, 5) == 4
        assert early_stopping_rounds(5, 5) == 6
        assert early_stopping_rounds(9, 5) == 6  # capped at t + 1

    def test_rounds_adaptive_vs_static_variant(self, big_config):
        """The point of the protocol: fault-free it beats the compact
        crash variant's fixed t + 1 = 6 rounds by a factor of 3."""
        inputs = {p: p % 3 for p in big_config.process_ids}
        result = run_early(big_config, inputs)
        assert result.rounds == 2 < big_config.t + 1


class TestCorrectness:
    @pytest.mark.parametrize("cut", [0.0, 0.4, 0.8, 1.0])
    @pytest.mark.parametrize(
        "t, crash_rounds",
        [
            (5, {2: 1}), (5, {2: 1, 5: 2}), (5, {1: 1, 4: 1}), (5, {3: 2, 6: 3}),
            # t < n/3: a relay of t + 1 values is well short of the
            # whole set, so a bug in which values get relayed shows.
            (2, {1: 1}), (2, {1: 1, 2: 2}),
        ],
    )
    def test_agreement_and_bound_under_crash_schedules(self, t, cut, crash_rounds):
        config = SystemConfig(n=7, t=t)
        inputs = {p: f"value-{p}" for p in config.process_ids}
        result = run_early(config, inputs, crash_rounds, cut=cut)
        assert len(result.decided_values()) == 1
        bound = early_stopping_rounds(len(crash_rounds), config.t)
        assert max(result.decision_rounds.values()) <= bound

    def test_validity_on_unanimity(self, big_config):
        inputs = {p: "v" for p in big_config.process_ids}
        result = run_early(big_config, inputs, crash_rounds={1: 1, 2: 2})
        assert result.decided_values() == {"v"}

    def test_decision_is_some_input(self, big_config):
        inputs = {p: f"value-{p}" for p in big_config.process_ids}
        result = run_early(big_config, inputs, crash_rounds={4: 2})
        decided = next(iter(result.decided_values()))
        assert decided in set(inputs.values())

    def test_snapshot_fields_are_repr_sorted_tuples(self):
        # A set's order follows the hash seed; a repr-sorted tuple's
        # does not.
        config = SystemConfig(n=7, t=2)
        inputs = {p: f"value-{p}" for p in config.process_ids}
        result = run_early(config, inputs, crash_rounds={6: 1, 7: 1})
        for process in result.processes.values():
            snapshot = process.snapshot()
            for field in ("values", "heard"):
                assert type(snapshot[field]) is tuple
                assert list(snapshot[field]) == sorted(
                    snapshot[field], key=repr
                )
            assert snapshot["values"] == tuple(
                sorted(set(inputs.values()), key=repr)
            )


@settings(max_examples=40, deadline=None)
@given(
    crash_spec=st.dictionaries(
        st.integers(1, 7), st.integers(1, 5), min_size=0, max_size=4
    ),
    cut=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    pattern=st.integers(0, 3),
)
def test_early_stopping_property(crash_spec, cut, pattern):
    """Random crash schedules: agreement + the adaptive round bound."""
    config = SystemConfig(n=7, t=5)
    inputs = {p: (p * (pattern + 1)) % 4 for p in config.process_ids}
    result = run_early(config, inputs, crash_spec or None, cut=cut)
    assert len(result.decided_values()) == 1
    bound = early_stopping_rounds(len(crash_spec), config.t)
    assert max(result.decision_rounds.values()) <= bound
