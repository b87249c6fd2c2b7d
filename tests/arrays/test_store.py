"""The hash-consing array store: round-trip and robustness properties.

The kernel's contract is *invisibility*: an interned array must be
observationally a plain nested tuple (equality, ordering of leaves,
hashing, pickling), with all the sharing and metadata living behind
that interface.  These tests pin the contract, the typed-identity
rules (``True`` vs ``1``), and the Byzantine-garbage behaviour: junk
must fail to intern without crashing or polluting the store.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays.store import (
    ArrayStore,
    InternedArray,
    clear_shared_stores,
    shared_store,
)
from repro.arrays.value_array import (
    array_depth,
    array_leaves,
    count_leaves,
    is_defined_array,
    unique_leaves,
    validate_array,
)
from repro.arrays.encoding import MessageSizer, encoded_array_bits
from repro.errors import ProtocolViolation
from repro.types import BOTTOM

from tests.conftest import nested_tuple


def plain_arrays(n: int, max_depth: int = 3, leaves=None):
    """Strategy: uniform-depth plain nested tuples over ``n``."""
    if leaves is None:
        leaves = st.one_of(
            st.integers(min_value=0, max_value=3),
            st.booleans(),
            st.sampled_from(["a", "b"]),
        )

    def build(depth: int):
        if depth == 0:
            return leaves
        return st.tuples(*[build(depth - 1)] * n)

    return st.integers(min_value=1, max_value=max_depth).flatmap(build)


# -- round-trip properties ---------------------------------------------------


@given(plain_arrays(n=3))
@settings(max_examples=150, deadline=None)
def test_interned_equals_plain(array):
    node = ArrayStore(3).intern(array)
    assert node == array
    assert hash(node) == hash(array)
    assert len(node) == len(array)
    assert tuple(node) == array


@given(plain_arrays(n=2))
@settings(max_examples=100, deadline=None)
def test_interned_preserves_leaf_order(array):
    node = ArrayStore(2).intern(array)
    assert list(array_leaves(node)) == list(array_leaves(array))


@given(plain_arrays(n=2))
@settings(max_examples=100, deadline=None)
def test_interned_pickles_to_plain_tuples(array):
    node = ArrayStore(2).intern(array)
    revived = pickle.loads(pickle.dumps(node))
    assert revived == array
    assert type(revived) is tuple

    def no_interned(value):
        if isinstance(value, tuple):
            assert type(value) is tuple
            for component in value:
                no_interned(component)

    no_interned(revived)
    copied = copy.deepcopy(node)
    assert copied == array and type(copied) is tuple


@given(plain_arrays(n=3))
@settings(max_examples=100, deadline=None)
def test_metadata_matches_plain_walks(array):
    node = ArrayStore(3).intern(array)
    assert node.depth == array_depth(array, 3)
    assert node.leaf_count == count_leaves(array)
    assert node.defined == is_defined_array(array)
    assert node.leaves_unique == unique_leaves(array)


@given(plain_arrays(n=2))
@settings(max_examples=100, deadline=None)
def test_interning_is_canonical(array):
    store = ArrayStore(2)
    first = store.intern(array)
    # Re-interning the plain original, a structural copy, and the node
    # itself all return the same object.
    assert store.intern(array) is first
    rebuilt = pickle.loads(pickle.dumps(array))
    assert store.intern(rebuilt) is first
    assert store.intern(first) is first


def test_subtrees_are_shared():
    store = ArrayStore(2)
    child = store.intern(((0, 1), (1, 0)))
    parent = store.intern((((0, 1), (1, 0)), ((0, 1), (1, 0))))
    assert parent[0] is child and parent[1] is child


def test_typed_leaves_stay_distinct():
    store = ArrayStore(2)
    booleans = store.intern((True, True))
    ones = store.intern((1, 1))
    # Tuple equality says they are equal; canonical identity (and the
    # sizing caches keyed on it) must not merge them.
    assert booleans == ones
    assert booleans is not ones
    assert booleans.key_token is not ones.key_token
    # 16 values -> 4 bits per value leaf; n=2 -> 1 bit per index leaf.
    # Booleans are values, small ints are indices, so the twins must
    # measure differently despite comparing equal.
    sizer = MessageSizer(value_alphabet_size=16, n=2)
    assert sizer.measure(booleans) != sizer.measure(ones)


def test_typed_subtrees_stay_distinct():
    # Typed identity must survive *interior* levels, not just leaves:
    # the parents of (3, 1) and (3, True) are tuple-equal but must not
    # merge, or the bool leaf silently becomes an int in the canonical
    # node (and measures as an index instead of a value).
    store = ArrayStore(2)
    ints = store.intern(((3, 1), (3, 1)))
    mixed = store.intern(((3, 1), (3, True)))
    assert ints == mixed
    assert ints is not mixed
    assert type(mixed[1][1]) is bool
    assert (bool, True) in mixed.leaves_unique
    sizer = MessageSizer(value_alphabet_size=4, n=2)
    assert sizer.measure(ints) != sizer.measure(mixed)


def test_bottom_leaves_mark_undefined():
    store = ArrayStore(2)
    node = store.intern(((BOTTOM, 0), (1, 0)))
    assert not node.defined
    assert is_defined_array(node) is False
    # Closed-form sizing only covers defined arrays; the walk fallback
    # must agree with the plain result.
    plain = ((BOTTOM, 0), (1, 0))
    assert encoded_array_bits(node, 3) == encoded_array_bits(plain, 3)


# -- Byzantine garbage -------------------------------------------------------


@pytest.mark.parametrize(
    "garbage",
    [
        (0,),  # wrong width
        (0, 1, 2),  # wrong width
        ((0, 1), 2),  # ragged: depths differ
        ((0, 1), (2,)),  # inner wrong width
        ([0, 1], [2, 3]),  # lists are scalars -> unhashable leaves
        ({"evil": 1}, 0),  # unhashable leaf
    ],
)
def test_garbage_fails_without_polluting(garbage):
    store = ArrayStore(2)
    baseline = store.intern(((0, 1), (1, 0)))
    size_before = len(store)
    with pytest.raises(ProtocolViolation):
        store.intern(garbage)
    assert store.try_intern(garbage) is None
    # Nothing new was registered, and prior nodes are untouched.
    assert len(store) == size_before
    assert store.intern(((0, 1), (1, 0))) is baseline


def test_nesting_past_the_recursion_limit_is_garbage_not_a_crash():
    """A 5000-deep payload is rejected, never a RecursionError."""
    store = ArrayStore(1)
    hostile = nested_tuple(1)
    assert store.try_intern(hostile) is None
    assert store.try_intern(hostile, 3) is None
    with pytest.raises(ProtocolViolation):
        store.intern(hostile)
    assert len(store) == 0


def test_try_intern_descends_no_deeper_than_asked():
    store = ArrayStore(1)
    assert store.try_intern(nested_tuple(1, 3), 2) is None
    assert len(store) == 0  # rejected on the way down: nothing built
    node = store.try_intern(nested_tuple(1, 3), 3)
    assert node is not None and node.depth == 3
    # Already-canonical nodes cost nothing and come back at any depth;
    # the bound is on plain levels opened, so wrapping one is one level.
    assert store.try_intern(node, 1) is node
    assert store.try_intern((node,), 1).depth == 4
    assert store.try_intern(((node,),), 1) is None


def test_try_intern_requires_tuples():
    store = ArrayStore(2)
    assert store.try_intern(0) is None
    assert store.try_intern(None) is None
    node = store.try_intern((0, 1))
    assert node is not None and node == (0, 1)


def test_scalars_pass_through_intern():
    store = ArrayStore(2)
    assert store.intern(5) == 5
    assert store.intern(BOTTOM) is BOTTOM


def test_store_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        ArrayStore(0)


# -- fast-path equivalence ---------------------------------------------------


@given(plain_arrays(n=2))
@settings(max_examples=100, deadline=None)
def test_validate_and_size_fast_paths_agree(array):
    node = ArrayStore(2).intern(array)
    leaf_ok = lambda leaf: not isinstance(leaf, str)  # noqa: E731
    for depth in (None, array_depth(array, 2)):
        assert validate_array(node, 2, depth=depth) == validate_array(
            array, 2, depth=depth
        )
        assert validate_array(
            node, 2, depth=depth, leaf_ok=leaf_ok
        ) == validate_array(array, 2, depth=depth, leaf_ok=leaf_ok)
    for leaf_bits in (1, 3):
        assert encoded_array_bits(node, leaf_bits) == encoded_array_bits(
            array, leaf_bits
        )
    sizer_a = MessageSizer(value_alphabet_size=4, n=2)
    sizer_b = MessageSizer(value_alphabet_size=4, n=2)
    assert sizer_a.measure(node) == sizer_b.measure(array)
    assert sizer_a.measure_value_array(node) == sizer_b.measure_value_array(
        array
    )


def test_wrong_store_width_falls_back_to_walk():
    # A store-2 node inspected as an n=3 array must take the plain
    # walk and fail shape validation, not trust its metadata.
    node = ArrayStore(2).intern((0, 1))
    assert validate_array(node, 3) is False
    with pytest.raises(ProtocolViolation):
        array_depth(node, 3)


# -- the shared registry -----------------------------------------------------


def test_shared_store_registry():
    clear_shared_stores()
    try:
        first = shared_store(4)
        assert shared_store(4) is first
        assert shared_store(5) is not first
        node = first.intern((0, 1, 2, 3))
        clear_shared_stores()
        fresh = shared_store(4)
        assert fresh is not first
        # Nodes of a cleared store stay valid tuples.
        assert node == (0, 1, 2, 3)
    finally:
        clear_shared_stores()
