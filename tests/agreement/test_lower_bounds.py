"""Tests for the lower-bound formulas and their relation to protocols."""

import pytest

from repro.agreement.lower_bounds import min_rounds_for_agreement
from repro.compact.byzantine_agreement import compact_ba_rounds
from repro.errors import ConfigurationError


class TestFormulas:
    def test_rounds(self):
        assert min_rounds_for_agreement(0) == 1
        assert min_rounds_for_agreement(3) == 4

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            min_rounds_for_agreement(-1)


class TestProtocolsRespectBounds:
    def test_compact_rounds_never_beat_the_bound(self):
        for t in range(1, 8):
            for k in range(1, 8):
                assert compact_ba_rounds(t, k) >= min_rounds_for_agreement(t)

    def test_compact_approaches_the_bound_as_k_grows(self):
        """With k >= t + 1 the compact protocol hits exactly t + 1
        rounds — the abstract's 'factor arbitrarily close to 1'."""
        for t in range(1, 6):
            assert compact_ba_rounds(t, k=t + 1) == min_rounds_for_agreement(t)

    def test_exponential_baseline_is_optimal_in_rounds(self):
        for t in range(1, 6):
            assert t + 1 == min_rounds_for_agreement(t)
