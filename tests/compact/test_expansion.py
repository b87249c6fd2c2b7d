"""Tests for expansion functions phi_{b,r,p}."""

import pytest

from repro.arrays.store import (
    ArrayStore,
    clear_shared_stores,
    release_shared_stores,
    shared_store,
)
from repro.compact.expansion import BindingExpansion, ExpansionState
from repro.errors import ProtocolViolation
from repro.obs import Observer, observing
from repro.types import is_bottom


@pytest.fixture
def expansion(config4):
    return ExpansionState(config4, value_alphabet=[0, 1], store=ArrayStore(4))


class TestBlockOne:
    def test_identity_on_values(self, expansion):
        assert expansion.expand_scalar(1, 0) == 0
        assert expansion.expand_scalar(1, 1) == 1

    def test_undefined_outside_alphabet(self, expansion):
        assert is_bottom(expansion.expand_scalar(1, 7))
        assert is_bottom(expansion.expand_scalar(1, "x"))

    def test_unhashable_leaf_undefined(self, expansion):
        assert is_bottom(expansion.expand_scalar(1, [1, 2]))

    def test_identity_on_value_arrays(self, expansion):
        array = ((0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 0, 0), (1, 1, 1, 1))
        assert expansion.expand(1, array) == array


class TestHigherBlocks:
    def test_index_expands_through_out_table(self, expansion):
        expansion.learn((2, 3), (0, 1, 0, 1))
        assert expansion.expand_scalar(2, 3) == (0, 1, 0, 1)

    def test_missing_out_is_undefined(self, expansion):
        assert is_bottom(expansion.expand_scalar(2, 3))

    def test_non_index_undefined(self, expansion):
        expansion.learn((2, 3), (0, 1, 0, 1))
        assert is_bottom(expansion.expand_scalar(2, 0))
        assert is_bottom(expansion.expand_scalar(2, 5))
        assert is_bottom(expansion.expand_scalar(2, True))

    def test_recursive_two_levels(self, expansion):
        # phi_3(q) = phi_2(OUT[3][q]); OUT[3][q] is an index array.
        expansion.learn((2, 1), (0, 0, 0, 0))
        expansion.learn((2, 2), (1, 1, 1, 1))
        expansion.learn((3, 4), (1, 2, 1, 2))
        assert expansion.expand_scalar(3, 4) == (
            (0, 0, 0, 0),
            (1, 1, 1, 1),
            (0, 0, 0, 0),
            (1, 1, 1, 1),
        )

    def test_partial_nested_definition_undefined(self, expansion):
        expansion.learn((3, 4), (1, 2, 1, 2))
        expansion.learn((2, 1), (0, 0, 0, 0))
        # OUT[2][2] missing: the whole expansion is undefined.
        assert is_bottom(expansion.expand_scalar(3, 4))

    def test_substitutive_on_arrays(self, expansion):
        expansion.learn((2, 1), (0, 0, 0, 0))
        expansion.learn((2, 2), (1, 1, 1, 1))
        array = (1, 2, 1, 2)
        expanded = expansion.expand(2, array)
        assert expanded == (
            (0, 0, 0, 0),
            (1, 1, 1, 1),
            (0, 0, 0, 0),
            (1, 1, 1, 1),
        )


class TestMonotonicity:
    """Expansion functions only ever become MORE defined (Lemma 7's
    engine room): defined results are stable, undefined ones may
    flip to defined later."""

    def test_undefined_becomes_defined_after_out(self, expansion):
        array = (3, 3, 3, 3)
        assert is_bottom(expansion.expand(2, array))
        expansion.learn((2, 3), (0, 1, 0, 1))
        assert not is_bottom(expansion.expand(2, array))

    def test_defined_results_are_stable(self, expansion):
        expansion.learn((2, 3), (0, 1, 0, 1))
        before = expansion.expand(2, (3, 3, 3, 3))
        expansion.learn((2, 1), (1, 1, 1, 1))  # unrelated growth
        after = expansion.expand(2, (3, 3, 3, 3))
        assert before == after

    def test_out_entries_irrevocable(self, expansion):
        expansion.learn((2, 3), (0, 1, 0, 1))
        with pytest.raises(ProtocolViolation):
            expansion.learn((2, 3), (1, 1, 1, 1))

    def test_idempotent_set_out_allowed(self, expansion):
        expansion.learn((2, 3), (0, 1, 0, 1))
        expansion.learn((2, 3), (0, 1, 0, 1))  # same value: fine


class TestBookkeeping:
    def test_has_out_and_table(self, expansion):
        assert not expansion.has((2, 3))
        expansion.learn((2, 3), (0, 1, 0, 1))
        assert expansion.has((2, 3))
        assert expansion.out_tables().get(2, {}) == {3: (0, 1, 0, 1)}
        assert expansion.out_tables().get(3, {}) == {}

    def test_out_returns_bottom_when_missing(self, expansion):
        assert not expansion.has((2, 1))

    def test_defined_predicate(self, expansion):
        assert expansion.defined(1, (0, 1, 0, 1))
        assert not expansion.defined(2, (1, 1, 1, 1))


class TestStoreSharedExpansions:
    """``phi_b`` of a canonical node depends only on the node and the
    images of its distinct leaves, so processors whose OUT tables agree
    share one build per store; undefined results are never remembered,
    and the memo goes when the store does."""

    CORES = {1: (0, 0, 0, 0), 2: (1, 1, 1, 1), 3: (0, 1, 0, 1), 4: (1, 0, 0, 1)}

    def processor(self, config4, store, cores=None):
        expansion = ExpansionState(config4, [0, 1], store=store)
        for sender, core in (cores or self.CORES).items():
            expansion.learn((2, sender), store.intern(core))
        return expansion

    def test_second_processor_builds_and_interns_nothing(self, config4):
        store = ArrayStore(4)
        node = store.intern(((1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 2), (3, 3, 4, 4)))
        first = self.processor(config4, store).expand(2, node)
        size, memo = len(store), dict(store.expansions)
        observer = Observer()
        with observing(observer, close=False):
            second = self.processor(config4, store).expand(2, node)
        assert second is first
        assert (len(store), store.expansions) == (size, memo)
        registry = observer.registry
        # the node itself, and the identity phi_1 of the four OUT entries
        assert registry.counter("compact.expansion.hit") == 5
        assert registry.counter("compact.expansion.miss") == 0
        assert registry.counter("arrays.intern.miss") == 0

    def test_result_equals_the_plain_substitution(self, config4):
        store = ArrayStore(4)
        array = ((1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 2), (3, 3, 4, 4))
        plain = BindingExpansion(config4, [0, 1])
        for sender, core in self.CORES.items():
            plain.learn((2, sender), core)
        shared = self.processor(config4, store).expand(2, store.intern(array))
        assert shared == plain.expand(2, array)

    def test_differing_out_tables_never_collide(self, config4):
        store = ArrayStore(4)
        node = store.intern((1, 2, 1, 2))
        ours = self.processor(config4, store)
        theirs = self.processor(
            config4, store, {**self.CORES, 2: (0, 0, 1, 1)}
        )
        assert ours.expand(2, node) == (
            (0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 0), (1, 1, 1, 1)
        )
        assert theirs.expand(2, node) == (
            (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 1, 1)
        )

    def test_typed_images_never_collide(self, config4):
        """``True == 1``, but an expansion must keep the leaf it was given."""
        store = ArrayStore(4)
        node = store.intern((1, 1, 1, 1))
        ints = self.processor(config4, store, {1: (1, 1, 1, 1)})
        bools = self.processor(config4, store, {1: (True, True, True, True)})
        assert ints.expand(2, node) == bools.expand(2, node)
        assert {type(leaf) for leaf in ints.expand(2, node)[0]} == {int}
        assert {type(leaf) for leaf in bools.expand(2, node)[0]} == {bool}

    def test_undefined_results_are_never_memoised(self, config4):
        store = ArrayStore(4)
        node = store.intern((1, 2, 3, 4))
        partial = dict(self.CORES)
        del partial[4]
        expansion = self.processor(config4, store, partial)
        assert is_bottom(expansion.expand(2, node))
        assert not expansion.defined(2, node)
        assert store.expansions == {}
        # ... and becomes defined once the missing decision lands.
        expansion.learn((2, 4), store.intern(self.CORES[4]))
        assert expansion.defined(2, node)
        assert expansion.expand(2, node) == tuple(
            self.CORES[q] for q in (1, 2, 3, 4)
        )

    def test_defined_builds_nothing(self, config4):
        store = ArrayStore(4)
        node = store.intern((1, 2, 3, 4))
        expansion = self.processor(config4, store)
        size = len(store)
        assert expansion.defined(2, node)
        assert (len(store), store.expansions) == (size, {})

    def test_plain_out_entries_share_too(self, config4):
        """A decided value may be a Byzantine voter's plain tuple."""
        store = ArrayStore(4)
        node = store.intern((1, 2, 3, 4))
        canonical = self.processor(config4, store).expand(2, node)
        plain = ExpansionState(config4, [0, 1], store=store)
        for sender, core in self.CORES.items():
            plain.learn((2, sender), core)  # not interned
        assert plain.expand(2, node) is canonical

    def test_memo_is_dropped_with_the_shared_stores(self, config4):
        clear_shared_stores()
        store = shared_store(4)
        self.processor(config4, store).expand(2, store.intern((1, 2, 3, 4)))
        assert store.expansions
        release_shared_stores()
        assert shared_store(4) is not store
        assert shared_store(4).expansions == {}
        clear_shared_stores()
