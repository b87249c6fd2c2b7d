"""Unit and property tests for nested arrays (Section 5.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.arrays.value_array import (
    array_depth,
    array_leaves,
    count_leaves,
    is_defined_array,
    is_index_scalar,
    iter_paths,
    leaf_at,
    make_array,
    map_leaves,
    replace_at,
    uniform_array,
    validate_array,
)
from repro.errors import ProtocolViolation
from repro.types import BOTTOM
from tests.conftest import nested_tuple


def nested_arrays(n: int, max_depth: int = 3):
    """Hypothesis strategy: uniform-depth arrays over small int leaves."""

    def build(depth: int):
        if depth == 0:
            return st.integers(min_value=0, max_value=9)
        return st.tuples(*[build(depth - 1)] * n)

    return st.integers(min_value=0, max_value=max_depth).flatmap(build)


class TestDepth:
    def test_scalar_is_depth_zero(self):
        assert array_depth(5, n=3) == 0

    def test_flat_tuple_is_depth_one(self):
        assert array_depth((1, 2, 3), n=3) == 1

    def test_nested_depth_two(self):
        array = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert array_depth(array, n=3) == 2

    def test_wrong_width_rejected(self):
        with pytest.raises(ProtocolViolation):
            array_depth((1, 2), n=3)

    def test_ragged_rejected(self):
        with pytest.raises(ProtocolViolation):
            array_depth(((1, 2, 3), 4, 5), n=3)

    def test_mixed_subarray_width_rejected(self):
        with pytest.raises(ProtocolViolation):
            array_depth(((1, 2), (3, 4, 5), (6, 7, 8)), n=3)

    @given(nested_arrays(n=3))
    def test_depth_counts_leaves(self, array):
        depth = array_depth(array, n=3)
        assert count_leaves(array) == 3**depth


class TestValidate:
    def test_accepts_well_formed(self):
        assert validate_array((0, 1, 0), n=3, depth=1)

    def test_rejects_wrong_depth(self):
        assert not validate_array((0, 1, 0), n=3, depth=2)

    def test_rejects_bad_leaf(self):
        assert not validate_array(
            (0, "junk", 0), n=3, depth=1, leaf_ok=lambda leaf: leaf in (0, 1)
        )

    def test_never_raises_on_garbage(self):
        assert not validate_array(((1,), 2, 3), n=3)
        assert not validate_array((1, 2), n=3)

    def test_nesting_past_the_recursion_limit_is_false_not_a_crash(self):
        """The plain-tuple walk is bounded by the depth asked for."""
        hostile = nested_tuple(3)  # right width at every level
        assert not validate_array(hostile, n=3)
        assert not validate_array(hostile, n=3, depth=2)
        with pytest.raises(ProtocolViolation):
            array_depth(hostile, n=3)
        # The bound is on levels opened, not an off-by-one on depth.
        assert validate_array(nested_tuple(3, 4), n=3, depth=4)
        assert not validate_array(nested_tuple(3, 4), n=3, depth=3)

    def test_scalar_leaf_check(self):
        assert validate_array(1, n=3, depth=0, leaf_ok=lambda leaf: leaf == 1)
        assert not validate_array(2, n=3, depth=0, leaf_ok=lambda leaf: leaf == 1)


class TestUniformArray:
    def test_depth_zero_is_scalar(self):
        assert uniform_array(7, depth=0, n=4) == 7

    def test_shape_and_leaves(self):
        array = uniform_array(0, depth=2, n=4)
        assert array_depth(array, n=4) == 2
        assert all(leaf == 0 for leaf in array_leaves(array))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            uniform_array(0, depth=-1, n=4)


class TestPaths:
    def test_leaf_at_root(self):
        assert leaf_at(5, ()) == 5

    def test_leaf_at_nested(self):
        array = ((1, 2), (3, 4))
        assert leaf_at(array, (2, 1)) == 3

    def test_leaf_at_is_one_based(self):
        array = (10, 20, 30)
        assert leaf_at(array, (1,)) == 10
        assert leaf_at(array, (3,)) == 30

    def test_path_below_leaves_rejected(self):
        with pytest.raises(ProtocolViolation):
            leaf_at((1, 2), (1, 1))

    def test_path_out_of_range_rejected(self):
        with pytest.raises(ProtocolViolation):
            leaf_at((1, 2), (3,))

    def test_iter_paths_count(self):
        assert len(list(iter_paths(n=3, depth=2))) == 9

    def test_iter_paths_matches_leaves(self):
        array = ((1, 2), (3, 4))
        leaves = [leaf_at(array, path) for path in iter_paths(n=2, depth=2)]
        assert leaves == list(array_leaves(array))

    @given(nested_arrays(n=2))
    def test_replace_then_read_back(self, array):
        depth = array_depth(array, n=2)
        if depth == 0:
            assert replace_at(array, (), 99) == 99
            return
        path = (1,) * depth
        replaced = replace_at(array, path, 99)
        assert leaf_at(replaced, path) == 99
        # Everything else is untouched.
        other = (2,) + (1,) * (depth - 1)
        assert leaf_at(replaced, other) == leaf_at(array, other)


class TestMapAndDefined:
    def test_map_leaves_is_substitutive(self):
        array = ((1, 2), (3, 4))
        assert map_leaves(lambda leaf: leaf * 10, array) == ((10, 20), (30, 40))

    def test_map_preserves_shape(self):
        array = ((1, 2), (3, 4))
        assert array_depth(map_leaves(str, array), n=2) == 2

    def test_defined_array(self):
        assert is_defined_array((1, 2, 3))
        assert not is_defined_array((1, BOTTOM, 3))
        assert not is_defined_array(BOTTOM)

    def test_bottom_deep_inside_makes_undefined(self):
        assert not is_defined_array(((1, 2), (BOTTOM, 4)))


class TestIndexScalar:
    def test_valid_indices(self):
        assert is_index_scalar(1, n=4)
        assert is_index_scalar(4, n=4)

    def test_out_of_range(self):
        assert not is_index_scalar(0, n=4)
        assert not is_index_scalar(5, n=4)

    def test_booleans_are_not_indices(self):
        assert not is_index_scalar(True, n=4)

    def test_non_ints_are_not_indices(self):
        assert not is_index_scalar("1", n=4)
        assert not is_index_scalar(1.0, n=4)
