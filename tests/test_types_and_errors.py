"""Tests for the foundational types module and exception hierarchy."""

import copy
import dataclasses
import pickle

import pytest

from repro import errors
from repro.types import BOTTOM, SystemConfig, is_bottom


class TestBottom:
    def test_singleton(self):
        from repro.types import _Bottom

        assert _Bottom() is BOTTOM

    def test_falsy(self):
        assert not BOTTOM
        assert bool(BOTTOM) is False

    def test_repr(self):
        assert repr(BOTTOM) == "BOTTOM"

    def test_is_bottom(self):
        assert is_bottom(BOTTOM)
        assert not is_bottom(None)  # None is a legal payload, not absence
        assert not is_bottom(0)
        assert not is_bottom(())

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM

    def test_hashable_and_usable_in_tuples(self):
        container = {(1, BOTTOM): "x"}
        assert container[(1, BOTTOM)] == "x"


class TestSystemConfig:
    def test_process_ids_one_based(self):
        config = SystemConfig(n=4, t=1)
        assert config.process_ids == (1, 2, 3, 4)

    @pytest.mark.parametrize("t", range(1, 6))
    def test_quorum_predicates(self, t):
        """The resilience bounds, exactly at their edges: Byzantine
        agreement needs ``n >= 3t + 1``, the fast avalanche variant
        ``n >= 4t + 1``."""
        for n, byzantine, fast in (
            (3 * t, False, False),
            (3 * t + 1, True, False),
            (4 * t, True, False),
            (4 * t + 1, True, True),
        ):
            config = SystemConfig(n=n, t=t)
            assert config.requires_byzantine_quorum() is byzantine
            assert config.requires_fast_quorum() is fast

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(n=0, t=0)
        with pytest.raises(ValueError):
            SystemConfig(n=4, t=-1)
        with pytest.raises(ValueError):
            SystemConfig(n=3, t=3)  # t must be < n
        # ... and a configuration error like any other (the CLI's exit 2).
        with pytest.raises(errors.ConfigurationError):
            SystemConfig(n=3, t=3)

    def test_frozen(self):
        config = SystemConfig(n=4, t=1)
        with pytest.raises(Exception):
            config.n = 5

    def test_t_zero_allowed(self):
        config = SystemConfig(n=1, t=0)
        assert config.requires_byzantine_quorum()

    @pytest.mark.parametrize("clone", [
        lambda config: pickle.loads(pickle.dumps(config)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ])
    def test_copies_keep_the_ids_and_compare_on_n_t(self, clone):
        config = SystemConfig(n=5, t=1)
        copied = clone(config)
        assert copied == config and hash(copied) == hash(config)
        assert copied.process_ids is config.process_ids
        assert dataclasses.asdict(copied) == {"n": 5, "t": 1}

    def test_ids_are_one_shared_tuple_and_no_field(self):
        config = SystemConfig(n=5, t=1)
        assert config.process_ids is SystemConfig(n=5, t=2).process_ids
        assert dataclasses.asdict(config) == {"n": 5, "t": 1}
        assert repr(config) == "SystemConfig(n=5, t=1)"
        assert dataclasses.replace(config, n=6).process_ids == tuple(
            range(1, 7)
        )
        assert config != SystemConfig(n=5, t=2)

    def test_pickles_as_n_and_t(self):
        blob = pickle.dumps(SystemConfig(n=5, t=1))
        assert b"process_ids" not in blob
        assert pickle.loads(blob).process_ids == (1, 2, 3, 4, 5)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "SystemConfigError",
            "ProtocolViolation",
            "SimulationMismatch",
            "DecisionError",
            "EncodingError",
            "AdversaryError",
        ):
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.DecisionError("x")

    def test_distinct_from_builtins(self):
        assert not issubclass(errors.ConfigurationError, ValueError)
