"""The flat integer-table kernel: mirror fidelity and plain-walk equality.

The flat kernel's contract is *byte-identity* with the plain-tuple
walkers: every measured size, every decision, every expansion computed
from an interned node's tables must equal what the recursive
reference computes from the same array handed over as builtin tuples
(``to_plain``) — no switch is needed to reach the oracle, because a
plain tuple never touches the tables.  These tests pin that contract
at three levels: the table mirror itself (rows reproduce the interned
DAG exactly), the hot primitives (sizer, EIG resolution, expansion)
under hypothesis-generated and Byzantine-ragged inputs, and whole
fuzz-corpus replays compared as pickled bytes between cold and warm
shared stores.
"""

import math
import pathlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays.encoding import MessageSizer, encoded_array_bits
from repro.arrays.flat import FlatTables, tables_for
from repro.arrays.store import ArrayStore, InternedArray, clear_shared_stores
from repro.compact.expansion import BindingExpansion, ExpansionState
from repro.errors import ProtocolViolation
from repro.fullinfo import decision
from repro.fullinfo.decision import eig_byzantine_decision
from repro.fuzz.campaign import replay_case
from repro.fuzz.case import load_corpus
from repro.obs import Observer, observing
from repro.types import BOTTOM, SystemConfig

from tests.arrays.test_store import plain_arrays
from tests.conftest import to_plain, typed
from tests.fullinfo.dominant_walk import expected_routes, walk_stop

CORPUS_DIR = pathlib.Path(__file__).parent.parent / "fuzz" / "corpus"


def uniform_trees(n: int, depth: int, leaves):
    """Strategy: one plain nested tuple of exactly ``depth`` levels."""
    strategy = leaves
    for _ in range(depth):
        strategy = st.tuples(*[strategy] * n)
    return strategy


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    clear_shared_stores()
    yield
    clear_shared_stores()


# -- the table mirror --------------------------------------------------------


def collect_nodes(node):
    """Every interned node reachable from ``node``, parents included."""
    seen = {}

    def walk(current):
        if current.key_token in seen:
            return
        seen[current.key_token] = current
        for component in current:
            if type(component) is InternedArray:
                walk(component)

    walk(node)
    return list(seen.values())


class TestTableMirror:
    @given(plain_arrays(n=3))
    @settings(max_examples=120, deadline=None)
    def test_rows_reproduce_interned_metadata(self, array):
        # A row id is the node's index in intern order, so the table
        # keeps no node metadata of its own to drift from the store's.
        store = ArrayStore(3)
        root = store.intern(array)
        tables = tables_for(store)
        assert tables.sync() == len(tables) == len(store)
        for node in collect_nodes(root):
            assert store.interned_nodes()[node.row] is node

    @given(plain_arrays(n=3))
    @settings(max_examples=120, deadline=None)
    def test_child_refs_decode_to_components(self, array):
        store = ArrayStore(3)
        root = store.intern(array)
        tables = tables_for(store)
        tables.sync()
        for node in collect_nodes(root):
            for slot, component in enumerate(node):
                ref = int(tables.children[node.row, slot])
                if type(component) is InternedArray:
                    assert 0 <= ref < node.row
                    assert store.interned_nodes()[ref] is component
                else:
                    assert ref < 0
                    decoded = tables.leaf_at(-(ref + 1))
                    assert decoded == component
                    assert type(decoded) is type(component)

    def test_leaf_codes_are_typed(self):
        store = ArrayStore(2)
        store.intern((True, 1))
        tables = tables_for(store)
        tables.sync()
        code_true = tables.code_of((bool, True))
        code_one = tables.code_of((int, 1))
        assert code_true is not None and code_one is not None
        assert code_true != code_one
        assert tables.leaf_at(code_true) is True
        assert tables.leaf_at(code_one) == 1

    def test_mirror_is_incremental(self):
        store = ArrayStore(2)
        first = store.intern(((0, 1), (1, 0)))
        tables = tables_for(store)
        rows_after_first = tables.sync()
        assert rows_after_first == len(tables)
        second = store.intern(((0, 1), (0, 0)))
        rows_after_second = tables.sync()
        assert rows_after_second > rows_after_first
        # Old rows stay put; the shared child kept its row.
        assert first.row < rows_after_first
        assert second.row >= rows_after_first
        assert int(tables.children[second.row, 0]) == first[0].row

    def test_tables_for_is_memoised_per_store(self):
        store = ArrayStore(2)
        assert tables_for(store) is tables_for(store)
        assert isinstance(tables_for(store), FlatTables)
        assert tables_for(ArrayStore(2)) is not tables_for(store)


# -- flat tables against the plain-tuple walkers ----------------------------


def decide(subject, n, t, alphabet):
    return eig_byzantine_decision(
        subject, n=n, t=t, process_id=1, default=0, alphabet=alphabet
    )


def kernel_counts(observer):
    """``(eig.kernel.descent, .flat, .fallback)`` as ``observer`` counted."""
    counters = observer.registry.counters()
    return (
        counters.get("eig.kernel.descent", 0),
        counters.get("eig.kernel.flat", 0),
        counters.get("eig.kernel.fallback", 0),
    )


class TestKernelEquality:
    @given(
        plain_arrays(
            n=3,
            leaves=st.one_of(
                st.integers(min_value=0, max_value=3),
                st.booleans(),
                st.sampled_from(["a", "b"]),
                st.just(BOTTOM),
            ),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_sizer_measures_identically(self, array):
        node = ArrayStore(3).intern(array)
        plain = to_plain(node)
        assert type(plain) is tuple
        sizer = MessageSizer(value_alphabet_size=4, n=3)
        assert sizer.measure(node) == sizer.measure(plain)
        assert encoded_array_bits(node, leaf_bits=2) == encoded_array_bits(
            plain, leaf_bits=2
        )

    @given(
        uniform_trees(
            n=6,
            depth=2,
            leaves=st.one_of(
                st.integers(min_value=0, max_value=1),
                st.just("garbage"),
                st.just(BOTTOM),
            ),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_eig_decision_identical(self, state):
        # n=6, depth 2: 30 relay chains, above the reference-sweep
        # threshold, so the interned node reaches the flat kernel.
        node = ArrayStore(6).intern(state)
        plain = to_plain(node)
        for alphabet in ([0, 1], None):
            with observing(Observer()) as observer:
                flat = decide(node, 6, 1, alphabet)
            reference = decide(plain, 6, 1, alphabet)
            assert typed(flat) == typed(reference)
            # The dominant-child walk settles some states outright and
            # hands others on at depth 1 (6 chains, the reference
            # sweep's); only an unwalked state reaches the kernel, and
            # without an alphabet a BOTTOM vote is no flat-table
            # scalar, so the kernel hands it back.
            descent, swept = expected_routes(plain, 6, 2, 0, alphabet)
            fallback = alphabet is None and any(
                leaf is BOTTOM for _, leaf in node.leaves_unique
            )
            assert kernel_counts(observer) == (
                descent, int(swept and not fallback), int(swept and fallback)
            )

    @pytest.mark.parametrize(
        "n, depth", [(5, 2), (4, 3), (6, 2)],
        ids=["20-chains", "24-chains", "30-chains"],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_both_sweeps_agree_on_each_side_of_the_threshold(
        self, n, depth, data
    ):
        """Past the dominant-child walk, the routing is a function of
        the size of the node it stops at: at most
        ``_REFERENCE_MAX_CHAINS`` chains never touch the flat kernel,
        more always do — and forced onto the flat kernel, the small
        states resolve exactly as the reference sweep resolves them."""
        state = data.draw(uniform_trees(
            n=n, depth=depth,
            leaves=st.one_of(st.integers(0, 1), st.just("garbage")),
        ))
        node = ArrayStore(n).intern(state)
        reference = decide(to_plain(node), n, depth - 1, [0, 1])
        with observing(Observer()) as routed:
            assert typed(decide(node, n, depth - 1, [0, 1])) == typed(reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decision, "_REFERENCE_MAX_CHAINS", 0)
            with observing(Observer()) as forced:
                assert typed(
                    decide(ArrayStore(n).intern(state), n, depth - 1, [0, 1])
                ) == typed(reference)
        stop = walk_stop(to_plain(node), n, depth, 0, [0, 1])
        routed_flat = (
            stop > 0 and math.perm(n, stop) > decision._REFERENCE_MAX_CHAINS
        )
        assert kernel_counts(routed) == (int(stop == 0), int(routed_flat), 0)
        assert kernel_counts(forced) == (int(stop == 0), int(stop > 0), 0)

    def test_eig_decision_on_ragged_state_identical(self):
        # A Byzantine processor relays a ragged (wrong-arity) level:
        # it can never become a node, so only the plain walk ever sees
        # it — and that must reject it without crashing.
        ragged = (
            ((0, 1, 0, 1), (1, 1, 1, 1), (0, 0), (1, 0, 1, 0)),
            "garbage",
            ((1, 1, 1, 1), (0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 0)),
            ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0)),
        )
        assert ArrayStore(4).try_intern(ragged) is None
        with pytest.raises(ProtocolViolation):
            eig_byzantine_decision(
                ragged, n=4, t=1, process_id=2, default=0, alphabet=[0, 1]
            )

    @given(
        uniform_trees(
            n=3,
            depth=2,
            leaves=st.one_of(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=1, max_value=3),
            ),
        ),
        st.sets(st.integers(min_value=1, max_value=3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_expansion_identical(self, array, decided):
        config = SystemConfig(n=3, t=1)

        def expand(store):
            """With a store: the view over interned nodes; without: the
            plain reference over builtin tuples."""
            if store is None:
                convert, expansion = to_plain, BindingExpansion(config, [0, 1])
            else:
                convert = store.intern
                expansion = ExpansionState(config, [0, 1], store=store)
            for sender in sorted(decided):
                expansion.learn((2, sender), convert((0, 1, sender % 2)))
            subject = convert(array)
            first = expansion.expand(2, subject)
            identity = expansion.expand(1, subject)
            # Defined results are memoised; a second call must agree.
            assert expansion.expand(2, subject) == first
            return (first, identity, expansion.defined(2, subject))

        assert expand(ArrayStore(3)) == expand(None)


# -- corpus replay: whole executions, compared as bytes ----------------------


_ENTRIES = load_corpus(CORPUS_DIR)


def replay_bytes(case):
    """A canonical serialisation of everything a replay determined."""
    outcome = replay_case(case)
    result = outcome.result
    return pickle.dumps(
        (
            result.rounds,
            sorted(result.decisions.items()),
            sorted(result.decision_rounds.items()),
            result.answer_vector(),
            result.metrics.as_counters(),
            sorted(result.metrics.bits_by_round()),
            outcome.violations,
        )
    )


@pytest.mark.parametrize(
    "case",
    [case for _, case in _ENTRIES],
    ids=[path.name for path, _ in _ENTRIES],
)
def test_corpus_replay_bytes_identical_across_kernels(case):
    # Cold tables against warm ones: the second replay finds every
    # node, size column and decision memo of the first still on the
    # shared stores, and none of that may show in the outcome.
    cold = replay_bytes(case)
    assert replay_bytes(case) == cold
