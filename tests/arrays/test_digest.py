"""Stable structural content digests: the persistence layer's keys.

The whole cross-run cache (:mod:`repro.arrays.persist`) is sound only
if :func:`repro.arrays.digest.content_digest` is a *stable* function
of typed structure: equal across stores, processes and kernels,
different for typed-distinguishable structures (``(True, True)`` vs
``(1, 1)``), and ``None`` — never wrong — on anything unstable.
These tests pin exactly those properties.
"""

import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays.digest import (
    content_digest,
    decode_leaf,
    decode_value,
    encode_leaf,
    encode_value,
    leaf_digest,
    value_digest,
    values_fingerprint,
)
from repro.arrays.store import ArrayStore
from repro.types import BOTTOM


def digest_of(structure, n=2):
    """Content digest of ``structure`` interned into a fresh store."""
    node = ArrayStore(n).intern(structure)
    return content_digest(node)


def plain_arrays(n: int, max_depth: int = 3):
    leaves = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
        st.sampled_from(["a", "b", ""]),
        st.floats(allow_nan=False, width=64),
        st.binary(max_size=3),
        st.none(),
    )

    def build(depth: int):
        if depth == 0:
            return leaves
        return st.tuples(*[build(depth - 1)] * n)

    return st.integers(min_value=1, max_value=max_depth).flatmap(build)


class TestTypedLeafIdentity:
    def test_bool_and_int_arrays_differ(self):
        assert digest_of((True, True)) != digest_of((1, 1))

    def test_float_and_int_differ(self):
        assert digest_of((1.0, 0)) != digest_of((1, 0))

    def test_str_and_bytes_differ(self):
        assert digest_of(("a", "a")) != digest_of((b"a", b"a"))

    def test_leaf_digest_none_for_foreign_types(self):
        class Weird:
            pass

        assert leaf_digest(Weird()) is None
        # Exact types only: a bool-like subclass must not borrow the
        # builtin tag (its equality semantics may differ).
        class FakeInt(int):
            pass

        assert leaf_digest(FakeInt(3)) is None

    def test_bottom_has_a_digest(self):
        assert leaf_digest(BOTTOM) is not None
        assert leaf_digest(BOTTOM) != leaf_digest("_")


class TestStability:
    def test_equal_across_distinct_stores(self):
        structure = ((0, 1), (1, 0))
        assert digest_of(structure) == digest_of(structure)

    def test_memoised_on_the_node(self):
        node = ArrayStore(2).intern(((0, 1), (1, 0)))
        first = content_digest(node)
        assert node._content_digest == first
        assert content_digest(node) is node._content_digest

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="fork-based cross-process check"
    )
    def test_equal_across_processes(self):
        structure = ((0, True), ("a", 1.5))
        parent_digest = digest_of(structure)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: recompute from scratch and report
            os.close(read_fd)
            try:
                child_digest = digest_of(structure) or b""
                os.write(write_fd, child_digest)
            finally:
                os.close(write_fd)
                os._exit(0)
        os.close(write_fd)
        child_bytes = os.read(read_fd, 64)
        os.close(read_fd)
        os.waitpid(pid, 0)
        assert child_bytes == parent_digest

    @settings(max_examples=60, deadline=None)
    @given(plain_arrays(2))
    def test_digest_is_a_function_of_typed_structure(self, structure):
        first = digest_of(structure)
        second = digest_of(structure)
        assert first == second
        assert first is not None

    @settings(max_examples=60, deadline=None)
    @given(plain_arrays(2), plain_arrays(2))
    def test_distinct_typed_structures_get_distinct_digests(self, a, b):
        typed_a = tuple_typed(a)
        typed_b = tuple_typed(b)
        if typed_a == typed_b:
            assert digest_of(a) == digest_of(b)
        else:
            assert digest_of(a) != digest_of(b)


def tuple_typed(structure):
    """Structure with every leaf tagged by its exact type."""
    if isinstance(structure, tuple):
        return tuple(tuple_typed(part) for part in structure)
    return (type(structure).__name__, repr(structure))


class TestUnstableValues:
    def test_foreign_leaf_poisons_the_whole_digest(self):
        class Opaque:
            def __eq__(self, other):
                return isinstance(other, Opaque)

            def __hash__(self):
                return 7

        node = ArrayStore(2).intern((Opaque(), 0))
        assert content_digest(node) is None

    def test_value_digest_rejects_plain_tuples(self):
        # A plain tuple has no canonical identity: digesting it would
        # let a non-interned adversarial structure alias a node.
        assert value_digest((0, 1)) is None
        assert value_digest(0) is not None

    def test_values_fingerprint_order_insensitive(self):
        assert values_fingerprint([0, 1]) == values_fingerprint([1, 0])
        assert values_fingerprint([0, 1]) != values_fingerprint([0, 2])
        assert values_fingerprint([0, object()]) is None


class TestLeafCodec:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=True, width=64),
            st.text(max_size=5),
            st.binary(max_size=5),
            st.none(),
            st.just(BOTTOM),
        )
    )
    def test_round_trip_preserves_type_and_value(self, leaf):
        encoded = encode_leaf(leaf)
        assert encoded is not None
        decoded = decode_leaf(encoded)
        assert type(decoded) is type(leaf)
        if leaf is BOTTOM:
            assert decoded is BOTTOM
        elif isinstance(leaf, float):
            # Bit-exact (covers -0.0 and NaN payloads, not just ==).
            import struct

            assert struct.pack(">d", decoded) == struct.pack(">d", leaf)
        else:
            assert decoded == leaf

    def test_negative_zero_distinct_from_zero(self):
        assert leaf_digest(0.0) != leaf_digest(-0.0)

    def test_encode_rejects_foreign_types(self):
        assert encode_leaf(object()) is None

    def test_value_codec_round_trips_nested_tuples(self):
        value = ((0, True), ("x", (b"y", None)))
        encoded = encode_value(value)
        assert encoded is not None
        decoded = decode_value(encoded)
        assert decoded == value
        assert pickle.dumps(decoded) == pickle.dumps(value)

    def test_value_codec_rejects_unencodable(self):
        assert encode_value((object(),)) is None
