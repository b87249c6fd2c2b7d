"""The EIG decision's dominant-child walk: exact, and only where it may.

A depth-``h`` state one of whose children fills ``a`` of its ``n``
slots with ``2a > n + h - 1`` resolves as that child does at depth
``h - 1``: every length-``h - 1`` chain then reads the child's leaf in
a strict majority of its extensions.  These tests plant a child at the
least ``a`` that descends, ``(n + h - 1) // 2 + 1``, and at the
greatest that must not, one less, over n = 4..7 and h = 1..4, with
leaves that a tally merges although they print differently (``1`` and
``True``, ``0.0`` and ``-0.0``), with and without an alphabet.  Every
answer must be typed-equal to the plain-tuple reference, and each memo
miss must take the route the plain model in ``dominant_walk`` predicts.
"""

import random

import pytest

from repro.arrays.store import ArrayStore, clear_shared_stores
from repro.fullinfo import decision
from repro.fullinfo.decision import eig_byzantine_decision
from repro.obs import Observer, observing
from repro.types import BOTTOM

from tests.conftest import to_plain, typed
from tests.fullinfo.dominant_walk import expected_routes, typed_shape

MIXES = {
    "ints": (0, 1),
    "bool-int": (0, 1, True),
    "garbage": (0, 1, "garbage", BOTTOM),
    "zeros": (0.0, -0.0, 1),
    "all": (0, 1, True, "garbage", BOTTOM, 0.0, -0.0),
}

#: ``(alphabet, default)`` pairs each planted state is decided under.
RULES = [((0, 1), 0), (None, 0), (None, "default")]

SEEDS = range(6)


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    clear_shared_stores()
    yield
    clear_shared_stores()


def random_array(rng, n, depth, mix):
    """A depth-``depth`` array over ``mix`` whose components repeat."""
    if depth == 0:
        return rng.choice(mix)
    pool = [random_array(rng, n, depth - 1, mix) for _ in range(2)]
    return tuple(rng.choice(pool) for _ in range(n))


def planted(n, h, a, mix, seed):
    """A depth-``h`` state whose child fills exactly ``a`` random slots,
    the rest cycling through arrays typed-distinct from it; returns the
    state and the child."""
    rng = random.Random(f"{n}-{h}-{a}-{seed}")
    child = random_array(rng, n, h - 1, mix)
    others = []
    while len(others) < 2:
        other = random_array(rng, n, h - 1, mix)
        if typed_shape(other) != typed_shape(child):
            others.append(other)
    chosen = set(rng.sample(range(n), a))
    rest = iter(range(n))
    state = tuple(
        child if slot in chosen else others[next(rest) % 2]
        for slot in range(n)
    )
    return state, child


def route_counts(observer):
    counters = observer.registry.counters()
    return (
        counters.get("eig.kernel.descent", 0),
        counters.get("eig.kernel.flat", 0)
        + counters.get("eig.kernel.fallback", 0),
    )


def decide(state, n, h, alphabet, default):
    return eig_byzantine_decision(
        state, n, h - 1, process_id=1, default=default, alphabet=alphabet
    )


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_planted_child_on_each_side_of_the_threshold(n, h, mix):
    least = (n + h - 1) // 2 + 1
    for seed in SEEDS:
        for a, descends in ((least, True), (least - 1, False)):
            plain, child = planted(n, h, a, MIXES[mix], seed)
            node = ArrayStore(n).intern(plain)
            first = decision._dominant_child(node, h, n)
            steps_in = first is not decision._MISSING and (
                typed_shape(to_plain(first)) == typed_shape(child)
            )
            assert steps_in == descends, (a, plain)
            for alphabet, default in RULES:
                with observing(Observer()) as observer:
                    got = decide(node, n, h, alphabet, default)
                reference = decide(to_plain(node), n, h, alphabet, default)
                assert typed(got) == typed(reference), (a, plain, alphabet)
                assert route_counts(observer) == expected_routes(
                    to_plain(node), n, h, default, alphabet
                ), (a, plain, alphabet)


def test_a_leaf_majority_of_another_class_keeps_the_first_recorded_object():
    # ``True`` fills three of four slots, but the tally merges it with
    # the ``1`` recorded first: the reference decides ``1``, so the walk
    # must not run.
    node = ArrayStore(4).intern((1, True, True, True))
    with observing(Observer()) as observer:
        got = decide(node, 4, 1, None, 0)
    assert typed(got) == typed(decide((1, True, True, True), 4, 1, None, 0))
    assert typed(got) == typed(1)
    assert route_counts(observer) == (0, 0)


def test_signed_zeros_never_take_the_walk():
    # The store's typed-leaf key merges 0.0 with -0.0, so the node
    # shows one of them; the tallies return whichever a chain records
    # first, which only a sweep reproduces.
    plain = ((-0.0, 0.0, 0.0, 0.0),) * 3 + ((0.0, -0.0, 0.0, 0.0),)
    node = ArrayStore(4).intern(plain)
    assert len(node.leaves_unique) == 1
    with observing(Observer()) as observer:
        got = decide(node, 4, 2, None, 1)
    assert typed(got) == typed(decide(to_plain(node), 4, 2, None, 1))
    assert route_counts(observer) == (0, 0)


def test_the_walk_is_one_span_and_one_memo_entry():
    # A state the walk settles through every level.
    plain = ((((1,) * 5,) * 5,) * 4 + (((0,) * 5,) * 5,),) * 5
    node = ArrayStore(5).intern(plain)
    with observing(Observer()) as observer:
        assert decide(node, 5, 4, (0, 1), 0) == 1
        assert decide(node, 5, 4, (0, 1), 0) == 1
    counters = observer.registry.counters()
    assert counters.get("eig.decision.miss") == 1
    assert counters.get("eig.decision.hit") == 1
    assert route_counts(observer) == (1, 0)
    assert len(node.store.eig_decisions) == 1
    spans = sum(
        count
        for path, (count, _, _) in observer.profile_snapshot().items()
        if path.split("/")[-1] == "eig.decision"
    )
    assert spans == 2
