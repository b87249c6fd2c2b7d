"""The EIG decision memo: one resolution per distinct canonical state.

``eig_byzantine_decision`` is a pure function of the information state
and the rule's parameters, and equal states are one canonical node, so
the flat kernel resolves each ``(node, n, t, default, alphabet)`` once
per store.  These tests pin that the memo is *only* that: every
memoised answer is byte-identical to the un-memoised reference (the
same state as builtin tuples, which reaches neither the memo nor the
flat sweep), a hit never crosses a parameter or a store, errors are
never remembered, and the memo dies with its store.
"""

import pickle
import random

import pytest

from repro.agreement.eig_agreement import eig_agreement_factory
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays.store import (
    ArrayStore,
    clear_shared_stores,
    release_shared_stores,
    shared_store,
)
from repro.core.predicates import byzantine_agreement_predicate
from repro.errors import ProtocolViolation
from repro.fullinfo.decision import eig_byzantine_decision
from repro.fullinfo.protocol import full_information_sizer
from repro.obs import Observer, observing
from repro.types import BOTTOM, SystemConfig

from tests.conftest import to_plain, typed
from tests.runtime.reference_async import schedule_for

N, T = 4, 1


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    clear_shared_stores()
    yield
    clear_shared_stores()


def seeded_state(seed, leaves=(0, 1, 1, "garbage", BOTTOM, True, 2.5)):
    """A plain depth-``T + 1`` array over ``N`` with seeded mixed leaves."""
    rng = random.Random(seed)
    return tuple(
        tuple(rng.choice(leaves) for _ in range(N)) for _ in range(N)
    )


def decide(state, default=0, alphabet=(0, 1), t=T):
    return eig_byzantine_decision(
        state, N, t, process_id=1, default=default, alphabet=alphabet
    )


def memo_counts(observer):
    counters = observer.registry.counters()
    return (
        counters.get("eig.decision.hit", 0),
        counters.get("eig.decision.miss", 0),
    )


def decision_spans(observer):
    return sum(
        count
        for path, (count, _, _) in observer.profile_snapshot().items()
        if path.split("/")[-1] == "eig.decision"
    )


# -- equality with the un-memoised references --------------------------------


@pytest.mark.parametrize("alphabet", [(0, 1), None], ids=["alphabet", "bare"])
@pytest.mark.parametrize("seed", range(40))
def test_memoised_decision_equals_both_references(seed, alphabet):
    plain = seeded_state(seed)
    node = ArrayStore(N).intern(plain)
    with observing(Observer()) as observer:
        first = decide(node, alphabet=alphabet)
        again = decide(node, alphabet=alphabet)
    assert memo_counts(observer) == (1, 1)
    assert len(node.store.eig_decisions) == 1
    # The reference sweep: plain tuples touch neither the memo nor the
    # flat tables, whether built by hand or rebuilt from the node.
    with observing(Observer()) as oracle:
        reference = decide(plain, alphabet=alphabet)
        rebuilt = decide(to_plain(node), alphabet=alphabet)
    assert memo_counts(oracle) == (0, 0)
    assert "eig.kernel.flat" not in oracle.registry.counters()
    assert typed(first) == typed(again) == typed(reference) == typed(rebuilt)


def test_garbage_leaves_are_laundered_by_the_alphabet_on_a_hit_too():
    state = ArrayStore(N).intern((("junk",) * N,) * N)
    for _ in range(2):
        assert decide(state, default=1) == 1
        assert decide(state, default=1, alphabet=None) == "junk"


def test_wrong_depth_raises_on_every_call_and_is_never_remembered():
    store = ArrayStore(N)
    shallow = store.intern((0,) * N)
    for _ in range(2):
        with pytest.raises(ProtocolViolation, match="depth-2 state"):
            decide(shallow)
    assert store.eig_decisions == {}
    with pytest.raises(ProtocolViolation):  # a ragged plain tuple
        decide(((0,) * N, 0, (0,) * N, (0,) * N))
    # A remembered depth-2 answer is not an answer for t = 2, nor for
    # a caller that lies about n.
    good = store.intern(((0,) * N,) * N)
    assert decide(good) == 0
    with pytest.raises(ProtocolViolation, match="depth-3 state"):
        decide(good, t=2)
    with pytest.raises(ProtocolViolation):
        eig_byzantine_decision(good, N + 1, T, 1, default=0, alphabet=(0, 1))
    assert len(store.eig_decisions) == 1


# -- what a key tells apart ---------------------------------------------------


#: No strict majority anywhere: the root resolves to ``default``.
TIED = ((0, 0, 1, 1),) * N


@pytest.mark.parametrize(
    "one, other", [(True, 1), (0.0, -0.0), (0, 1)],
    ids=["bool-int", "signed-zero", "values"],
)
def test_distinguishable_defaults_get_separate_entries(one, other):
    state = ArrayStore(N).intern(TIED)
    with observing(Observer()) as observer:
        for _ in range(2):
            assert typed(decide(state, default=one, alphabet=None)) == typed(one)
            assert typed(decide(state, default=other, alphabet=None)) == typed(
                other
            )
    assert memo_counts(observer) == (2, 2)
    assert len(state.store.eig_decisions) == 2


def test_a_hit_is_never_served_across_alphabets_or_stores():
    stores = [ArrayStore(N), ArrayStore(N)]
    states = [store.intern((("x", "x", "x", 1),) * N) for store in stores]
    with observing(Observer()) as observer:
        assert decide(states[0], alphabet=(0, 1)) == 0  # "x" laundered
        assert decide(states[0], alphabet=("x", 1)) == "x"
        assert decide(states[0], alphabet=None) == "x"
        # Equal structure in another store: its own node, its own memo.
        assert decide(states[1], alphabet=(0, 1)) == 0
    assert memo_counts(observer) == (0, 4)
    assert [len(store.eig_decisions) for store in stores] == [3, 1]


def test_unhashable_parameters_bypass_the_memo():
    state = ArrayStore(N).intern((("x",) * N,) * N)
    default = []
    with observing(Observer()) as observer:
        assert decide(state, default=default) is default  # laundered
        assert decide(state, default=default, alphabet=None) == "x"
        with pytest.raises(TypeError):  # as without the memo
            decide(state, alphabet=[[]])
    assert memo_counts(observer) == (0, 0)
    assert decision_spans(observer) == 3
    assert state.store.eig_decisions == {}


# -- lifetime ------------------------------------------------------------------


def test_memo_dies_with_the_shared_stores():
    state = shared_store(N).intern(seeded_state(0))
    decide(state)
    assert len(shared_store(N).eig_decisions) == 1
    release_shared_stores()
    assert shared_store(N).eig_decisions == {}


# -- whole executions ----------------------------------------------------------


def eig_grid(config, seeds=(0, 1), **switches):
    return sweep(
        eig_agreement_factory(config, [0, 1], default=0),
        config,
        input_patterns=[{p: p % 2 for p in config.process_ids}],
        fault_sets=[(1, 2)],
        adversary_makers=standard_adversary_makers(),
        seeds=seeds,
        predicate=byzantine_agreement_predicate(),
        max_rounds=config.t + 2,
        sizer=full_information_sizer(2, config.n),
        **switches,
    )


def test_every_decision_span_is_a_hit_or_a_miss_under_any_schedule(config7):
    """One count per ``eig.decision`` span, whoever runs the rounds.

    The hit/miss *split* depends on which executions shared a store
    (sweeps release theirs), so like every ``.hit``/``.miss`` pair it
    stays worker-local in a pool and the parent of a ``workers=2``
    sweep sees neither; what a pool must preserve is the report, and
    what any partition of the grid preserves is the sum.
    """
    readings = {}
    reports = {}
    for spec in ("lockstep", "async"):
        with schedule_for(spec), observing(Observer()) as observer:
            reports[spec] = eig_grid(config7, workers=1)
        hits, misses = memo_counts(observer)
        assert hits + misses == decision_spans(observer) == 12 * 5
        assert hits > misses > 0
        readings[spec] = (hits, misses)
    assert readings["lockstep"] == readings["async"]

    with observing(Observer()) as pooled:
        reports["pool"] = eig_grid(config7, workers=2)
    assert memo_counts(pooled) == (0, 0)
    assert pooled.registry.counter("runs") == 12
    dumps = {name: pickle.dumps(report) for name, report in reports.items()}
    assert dumps["lockstep"] == dumps["async"] == dumps["pool"]

    with observing(Observer()) as halves:
        eig_grid(config7, seeds=(0,), workers=1)
        eig_grid(config7, seeds=(1,), workers=1)
    assert sum(memo_counts(halves)) == sum(readings["lockstep"])
    assert memo_counts(halves) != readings["lockstep"]
