"""The store's ``sizes`` and ``verdicts`` memos against the plain fold.

A canonical node is sized once per store and cost policy, and vetted
once per store and leaf policy; both memos must read exactly what
:func:`repro.arrays.value_array.fold_tree` answers on the same array
handed over as builtin tuples, whatever else is already memoised on
the store.
"""

from hypothesis import given, settings, strategies as st

import repro.arrays.encoding as encoding
from repro.arrays.encoding import HEADER_BITS, MessageSizer
from repro.arrays.store import (
    ArrayStore,
    clear_shared_stores,
    release_shared_stores,
    shared_store,
    shared_store_stats,
)
from repro.arrays.value_array import fold_tree, is_index_scalar
from repro.fullinfo.protocol import IndexGate, ReceiveGate, leaves_satisfy
from repro.obs.core import Observer, observing
from repro.types import BOTTOM

from tests.arrays.test_store import plain_arrays
from tests.conftest import to_plain

N = 3
TYPED_LEAVES = st.sampled_from([0, 1, True, 1.0, BOTTOM, "x"])

#: Two cost policies: 1-bit and 10-bit values (ids cost 2 bits in both).
SIZERS = (MessageSizer(2, N), MessageSizer(1024, N))
ALPHABETS = (frozenset([0, 1]), frozenset([0, 1, "x"]))


def node_bits(child_bits):
    return HEADER_BITS + sum(child_bits)


def uniform_cost(bits):
    return lambda leaf: 0 if leaf is BOTTOM else bits


def folded_answers(plain):
    """Every measured size and verdict, folded over builtin tuples."""
    sizes = [
        (
            fold_tree(plain, sizer._measure_leaf, node_bits),
            fold_tree(plain, uniform_cost(sizer.value_bits), node_bits),
            fold_tree(plain, uniform_cost(sizer.index_bits), node_bits),
        )
        for sizer in SIZERS
    ]
    verdicts = [
        fold_tree(plain, lambda leaf: leaf in alphabet, all)
        for alphabet in ALPHABETS
    ]
    verdicts.append(fold_tree(plain, lambda leaf: is_index_scalar(leaf, N), all))
    return sizes, verdicts


def memoised_answers(node):
    """The same, through the sizers and the one verdict function."""
    sizes = [
        (
            sizer.measure(node),
            sizer.measure_value_array(node),
            sizer.measure_index_array(node),
        )
        for sizer in SIZERS
    ]
    verdicts = [
        leaves_satisfy(
            node, ("alphabet", alphabet), lambda leaf: leaf in alphabet
        )
        for alphabet in ALPHABETS
    ]
    verdicts.append(leaves_satisfy(
        node, ("indices", N), lambda leaf: is_index_scalar(leaf, N)
    ))
    return sizes, verdicts


@given(st.lists(plain_arrays(n=N, leaves=TYPED_LEAVES), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_memos_equal_the_plain_fold_with_every_policy_live(arrays):
    # One store for the whole batch: later arrays find the earlier
    # ones' sub-nodes sized and vetted under all five policies, so a
    # cross-policy or cross-node hit would show as a wrong answer.
    store = ArrayStore(N)
    for array in arrays:
        node = store.intern(array)
        plain = to_plain(node)
        assert type(plain) is tuple
        expected = folded_answers(plain)
        assert memoised_answers(node) == expected  # filling the memos
        assert memoised_answers(node) == expected  # reading them
    assert {policy for policy, _ in store.sizes} == {
        ("sizer", 1, 2, N), ("sizer", 10, 2, N),
        ("uniform", 1), ("uniform", 2), ("uniform", 10),
    }
    assert {policy for policy, _ in store.verdicts} == {
        ("alphabet", ALPHABETS[0]), ("alphabet", ALPHABETS[1]), ("indices", N),
    }


def test_typed_twins_are_sized_and_vetted_apart():
    # (True, True) == (1, 1) as tuples, but a bool is a value and a
    # small int an id: separate nodes, separate memo entries.
    store = ArrayStore(2)
    bools, ids = store.intern((True, True)), store.intern((1, 1))
    assert bools == ids and bools is not ids
    sizer = MessageSizer(1024, 2)  # 10-bit values, 1-bit ids
    assert sizer.measure(bools) == HEADER_BITS + 20
    assert sizer.measure(ids) == HEADER_BITS + 2
    indices = IndexGate(store)
    assert indices.admit(ids, 1) is ids
    assert indices.admit((1, 1), 1) is ids
    assert indices.admit(bools, 1) is not bools
    values = ReceiveGate(store, [True])  # True == 1: both are in V
    assert values.admit(bools, 1) is bools
    assert values.admit(ids, 1) is ids


@given(plain_arrays(n=N, max_depth=2, leaves=TYPED_LEAVES), TYPED_LEAVES)
@settings(max_examples=100, deadline=None)
def test_a_plain_tuple_over_interned_children_reads_their_sizes(array, leaf):
    # What a Byzantine sender ships: a builtin tuple, ragged here, whose
    # components are nodes it received earlier.
    store = ArrayStore(N)
    child = store.intern(array)
    wrapped = (child, (child, leaf), leaf)
    for sizer in SIZERS:
        assert sizer.measure(wrapped) == fold_tree(
            to_plain(wrapped), sizer._measure_leaf, node_bits
        )
    # The child was not opened a second time: its memo entry is what
    # the fold read.
    store.sizes[(("sizer", 1, 2, N), child.key_token)] = 1000
    assert SIZERS[0].measure((child, child, child)) == HEADER_BITS + 3000


def test_measure_reads_a_sized_node_without_folding(monkeypatch):
    # Two policies on one store: each folds the node once, cold, then
    # answers from its own ``sizes`` entry without entering the fold.
    store = ArrayStore(N)
    node = store.intern(((0, 1, BOTTOM), (1, True, 3), (2, 2, "x")))
    expected = [
        fold_tree(to_plain(node), sizer._measure_leaf, node_bits)
        for sizer in SIZERS
    ]
    assert expected[0] != expected[1]
    assert [sizer.measure(node) for sizer in SIZERS] == expected

    def no_fold(*args, **kwargs):
        raise AssertionError("measure folded a node its store had sized")

    monkeypatch.setattr(encoding, "fold_tree", no_fold)
    assert [sizer.measure(node) for sizer in SIZERS] == expected


def test_release_drops_both_memos_with_the_store():
    store = shared_store(N)
    node = store.intern((0, 1, 0))
    SIZERS[0].measure(node)
    assert ReceiveGate(store, [0, 1]).admit(node, 1) is node
    assert store.sizes and store.verdicts
    release_shared_stores()
    fresh = shared_store(N)
    assert fresh is not store
    assert not fresh.sizes and not fresh.verdicts
    release_shared_stores()


def test_release_records_gauges_and_resets():
    clear_shared_stores()
    observer = Observer()
    with observing(observer, close=False):
        shared_store(4).intern(((0, 1, 1, 0),) * 4)
        assert shared_store_stats()["nodes"] > 0
        release_shared_stores()
    gauges = observer.registry.gauges()
    assert gauges["arrays.shared_store.nodes"] > 0
    assert gauges["arrays.shared_store.stores"] == 1
    assert shared_store_stats()["nodes"] == 0
    assert shared_store_stats()["stores"] == 0


def test_release_without_an_observer_still_clears():
    shared_store(4).intern(((1, 0, 0, 1),) * 4)
    release_shared_stores()
    assert shared_store_stats()["nodes"] == 0
