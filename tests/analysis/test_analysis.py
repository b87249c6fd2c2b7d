"""Tests for cost models, tradeoff tables, comparison, and rendering."""

import pytest

from repro.adversary import EquivocatingAdversary
from repro.analysis.compare import comparison_table, measured_comparison
from repro.analysis.complexity import (
    compact_bits_estimate,
    eig_total_bits,
    full_information_message_bits,
    st_bits_estimate,
)
from repro.analysis.report import format_table
from repro.analysis.tradeoff import (
    achieved_round_factor,
    epsilon_table,
    message_size_exponent,
)
from repro.errors import ConfigurationError


class TestComplexityModels:
    def test_round_one_message_is_one_value(self):
        assert full_information_message_bits(4, 1, 2) == 1

    def test_message_bits_grow_by_factor_n(self):
        small = full_information_message_bits(4, 3, 2)
        large = full_information_message_bits(4, 4, 2)
        assert large / small > 3.5

    def test_eig_total_positive_and_monotone(self):
        assert eig_total_bits(4, 1, 2) < eig_total_bits(7, 2, 2)

    def test_rounds_are_one_based(self):
        with pytest.raises(ConfigurationError):
            full_information_message_bits(4, 0, 2)

    def test_compact_estimate_polynomial_in_n(self):
        """Fixing k, the estimate grows polynomially (degree k+3)."""
        small = compact_bits_estimate(10, 3, 2, 2)
        large = compact_bits_estimate(20, 3, 2, 2)
        # Round counts match, so ratio is exactly 2 ** (k+3) = 32.
        assert large / small == pytest.approx(2**5)

    def test_compact_beats_eig_for_large_t(self):
        """The crossover: exponential loses eventually (shape claim)."""
        t = 8
        n = 3 * t + 1
        assert compact_bits_estimate(n, t, 2, 2) < eig_total_bits(n, t, 2)

    def test_st_estimate_shape(self):
        assert st_bits_estimate(7, 2, 2) < st_bits_estimate(10, 3, 2)


class TestTradeoff:
    def test_epsilon_table_rows(self):
        rows = epsilon_table([2.0, 1.0, 0.5], t=4)
        assert [row["k"] for row in rows] == [1, 2, 4]
        for row in rows:
            assert row["rounds"] <= row["guarantee"] + 1e-9
            assert row["factor"] <= 1 + row["epsilon"] + 1e-9

    def test_rounds_decrease_with_smaller_epsilon(self):
        rows = epsilon_table([2.0, 1.0, 0.5, 0.25], t=6)
        rounds = [row["rounds"] for row in rows]
        assert rounds == sorted(rounds, reverse=True)

    def test_message_exponent_increases(self):
        rows = epsilon_table([2.0, 1.0, 0.5, 0.25], t=6)
        exponents = [row["message_exponent"] for row in rows]
        assert exponents == sorted(exponents)

    def test_factor_matches_block_arithmetic(self):
        assert achieved_round_factor(2) == 2.0
        assert achieved_round_factor(4) == 1.5
        assert achieved_round_factor(2, overhead=1) == 1.5
        assert message_size_exponent(3) == 3


class TestComparison:
    def test_analytic_table_structure(self):
        rows = comparison_table(t=2)
        protocols = [row["protocol"] for row in rows]
        assert protocols[0] == "lower bound"
        assert any("EIG" in name for name in protocols)
        assert any("Srikanth" in name for name in protocols)
        assert sum("compact" in name for name in protocols) == 2

    def test_eps1_rounds_within_paper_guarantee(self):
        """eps = 1 guarantees 2t + 2 rounds (the exact count can be
        lower because the final block skips its overhead rounds);
        Srikanth-Toueg is quoted at 2t + 1."""
        rows = {row["protocol"]: row for row in comparison_table(t=3)}
        compact = rows["compact (eps=1.0, k=2)"]
        st = rows["Srikanth-Toueg (paper-quoted)"]
        assert compact["rounds"] <= 2 * 3 + 2
        assert st["rounds"] == 2 * 3 + 1

    def test_measured_comparison_runs_everything(self):
        rows = measured_comparison(
            t=1,
            adversary_maker=lambda faulty: EquivocatingAdversary(faulty, 0, 1),
        )
        assert len(rows) == 4
        for row in rows:
            assert len(row["decisions"]) == 1  # agreement everywhere
            assert row["bits"] > 0


#: ``measured_comparison(t, equivocator, extended=True)`` at the parent
#: of the catalog merge: (label, rounds, bits, decisions) per row.
#: Dolev-Strong at t = 2 was re-recorded (14994 -> 14896 bits) when a
#: processor with nothing to relay came to send nothing: round 3's 49
#: empty 2-bit tuples are gone, the decisions are not.
PINNED_ROWS = {
    1: [
        ("exponential EIG", 2, 84, ["0"]),
        ("Srikanth-Toueg style", 4, 1080, ["0"]),
        ("compact (eps=1.0)", 2, 104, ["0"]),
        ("compact (eps=0.5)", 2, 104, ["0"]),
        ("Phase King (binary)", 6, 416, ["1"]),
        ("Dolev-Strong (authenticated, fault-free run)", 2, 2752, ["0"]),
    ],
    2: [
        ("exponential EIG", 3, 2625, ["1"]),
        ("Srikanth-Toueg style", 6, 6160, ["0"]),
        ("compact (eps=1.0)", 5, 26684, ["1"]),
        ("compact (eps=0.5)", 3, 5019, ["1"]),
        ("Phase King (binary)", 9, 1736, ["1"]),
        ("Dolev-Strong (authenticated, fault-free run)", 3, 14896, ["1"]),
    ],
}


@pytest.mark.parametrize("t", sorted(PINNED_ROWS))
def test_measured_comparison_rows_are_pinned(t):
    """Labels, rounds and paper-exact bits: EXPERIMENTS.md E4 and
    benchmarks/test_bench_comparison.py read these rows by label."""
    rows = measured_comparison(
        t, lambda faulty: EquivocatingAdversary(faulty, 0, 1), extended=True
    )
    assert [
        (row["protocol"], row["rounds"], row["bits"], row["decisions"])
        for row in rows
    ] == PINNED_ROWS[t]


class TestReport:
    def test_format_basic(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_column_selection_and_missing_cells(self):
        text = format_table([{"a": 1}], columns=["a", "zz"])
        assert "zz" in text

    def test_float_formatting(self):
        text = format_table([{"x": 3.14159, "y": 2.0, "z": 1234567.89}])
        assert "3.142" in text
        assert " 2" in text or "2 " in text
        assert "e+" in text  # non-integral huge floats go scientific

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])
