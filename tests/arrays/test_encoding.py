"""Tests for exact bit accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.arrays.encoding import (
    HEADER_BITS,
    NULL_BITS,
    MessageSizer,
    bits_for_alphabet,
    encoded_array_bits,
)
from repro.errors import EncodingError
from repro.types import BOTTOM
from tests.arrays import reference_walks
from tests.arrays.builders import uniform_array


class TestAlphabetBits:
    def test_binary_is_one_bit(self):
        assert bits_for_alphabet(2) == 1

    def test_powers_of_two(self):
        assert bits_for_alphabet(4) == 2
        assert bits_for_alphabet(8) == 3

    def test_non_powers_round_up(self):
        assert bits_for_alphabet(3) == 2
        assert bits_for_alphabet(5) == 3

    def test_unary_alphabet_still_costs_a_bit(self):
        assert bits_for_alphabet(1) == 1

    def test_empty_alphabet_rejected(self):
        with pytest.raises(EncodingError):
            bits_for_alphabet(0)


class TestArrayBits:
    def test_scalar(self):
        assert encoded_array_bits(0, leaf_bits=3) == 3

    def test_bottom_is_free(self):
        assert encoded_array_bits(BOTTOM, leaf_bits=3) == NULL_BITS == 0

    def test_flat_array(self):
        assert encoded_array_bits((0, 1, 0), leaf_bits=1) == HEADER_BITS + 3

    def test_nested_array(self):
        array = ((0, 1), (1, 0))
        expected = HEADER_BITS + 2 * (HEADER_BITS + 2)
        assert encoded_array_bits(array, leaf_bits=1) == expected

    @given(st.integers(0, 3), st.integers(2, 4))
    def test_matches_closed_form(self, depth, n):
        """Uniform arrays match the analytic node/leaf count."""
        array = uniform_array(0, depth=depth, n=n)
        leaves = n**depth
        nodes = sum(n**level for level in range(depth))
        assert (
            encoded_array_bits(array, leaf_bits=5)
            == leaves * 5 + nodes * HEADER_BITS
        )


class TestMessageBits:
    def test_mixed_leaf_costs(self):
        # An index leaf costs log n bits, a value leaf log |V|.
        sizer = MessageSizer(value_alphabet_size=128, n=8)
        assert sizer.measure((1, "v")) == HEADER_BITS + 3 + 7


class TestMessageSizer:
    def test_index_leaves_cost_index_bits(self):
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        # ids 1..4 are indices (2 bits), not values (10 bits)
        assert sizer.measure(3) == 2

    def test_value_leaves_cost_value_bits(self):
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        assert sizer.measure("payload") == 10

    def test_out_of_range_int_is_a_value(self):
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        assert sizer.measure(99) == 10

    def test_booleans_are_values_not_indices(self):
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        assert sizer.measure(True) == 10

    def test_measure_value_array_forces_value_bits(self):
        sizer = MessageSizer(value_alphabet_size=2, n=4)
        # leaves that look like indices are still charged as values
        assert sizer.measure_value_array((1, 2, 3, 4)) == HEADER_BITS + 4

    def test_measure_index_array(self):
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        assert sizer.measure_index_array((1, 2, 3, 4)) == HEADER_BITS + 4 * 2

    def test_bottom_free_everywhere(self):
        sizer = MessageSizer(value_alphabet_size=2, n=4)
        assert sizer.measure(BOTTOM) == 0
        assert sizer.measure_value_array(BOTTOM) == 0


class TestMessageSizerMemo:
    """Named for the memo ``MessageSizer`` once kept; what they pin is
    the measurement, which must not depend on what was measured before."""

    def test_repeat_measurement_is_cached(self):
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        message = (3, (0, 1), 2000)
        first = sizer.measure(message)
        assert sizer.measure((3, (0, 1), 2000)) == first

    def test_cache_never_conflates_bool_and_index(self):
        # value_bits=10, index_bits=2: a collision would be off by 8.
        sizer = MessageSizer(value_alphabet_size=1024, n=4)
        assert sizer.measure((1,)) != sizer.measure((True,))
        assert sizer.measure((True,)) == sizer.measure((False,))

    def test_unhashable_message_measured_uncached(self):
        sizer = MessageSizer(value_alphabet_size=2, n=4)
        assert sizer.measure(([1],)) > 0

    def test_cached_and_direct_agree(self):
        sizer = MessageSizer(value_alphabet_size=8, n=7)
        messages = [BOTTOM, 5, (1, 2), ((0,), (BOTTOM,)), True, 99]
        direct = [
            reference_walks.bits(m, sizer._measure_leaf) for m in messages
        ]
        assert [sizer.measure(m) for m in messages] == direct
        assert [sizer.measure(m) for m in messages] == direct
