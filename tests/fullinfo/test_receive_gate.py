"""The receive gates decide exactly what ``validate_array`` decides.

``ReceiveGate`` (leaves from an alphabet ``V``) and ``IndexGate``
(leaves that are processor ids) replaced per-protocol validators built
on :func:`repro.arrays.value_array.validate_array`; on every input —
canonical, plain, foreign, ragged, deep, unhashable, wrongly typed —
admission must equal ``validate_array(message, n, depth, leaf_ok)``,
an admitted message must be the canonical node of an equal typed
structure, and nothing may raise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays.store import ArrayStore, InternedArray
from repro.arrays.value_array import is_index_scalar, validate_array
from repro.fullinfo.protocol import REJECT, IndexGate, ReceiveGate
from repro.types import BOTTOM

N = 3


def value_ok(leaf):
    try:
        return leaf in {0, 1}
    except TypeError:
        return False


def index_ok(leaf):
    return is_index_scalar(leaf, N)


def gates():
    store = ArrayStore(N)
    return [
        (ReceiveGate(store, [0, 1]), value_ok),
        (IndexGate(store), index_ok),
    ]


def check(message, depths=range(0, 4)):
    for gate, leaf_ok in gates():
        for depth in depths:
            admitted = gate.admit(message, depth)
            expected = validate_array(message, N, depth=depth, leaf_ok=leaf_ok)
            assert (admitted is not REJECT) == expected, (message, depth)
            if expected and depth:
                assert type(admitted) is InternedArray
                assert admitted.store is gate.store
                assert admitted == message
                # admitting the canonical node again is the fast path
                assert gate.admit(admitted, depth) is admitted
            elif expected:
                assert admitted is message


FOREIGN = ArrayStore(N).intern(((1, 2, 3), (1, 1, 1), (3, 2, 1)))

CORPUS = [
    0, 1, 2, 3, 4, True, 1.0, 2.0, "1", None, BOTTOM, [1], {1}, (),
    (1, 2, 3), (0, 1, 0), (1, 2), (1, 2, 3, 1), (0, 1, 2), (1, 2, 4),
    (True, 1, 1), (1.0, 2, 3), (2.0, 2.0, 2.0), ([1], 1, 1), (1, BOTTOM, 1),
    ((1, 2, 3), (1, 2, 3), (1, 2, 3)),
    ((0, 1, 0), (1, 1, 1), (0, 0, 0)),
    ((1, 2, 3), (1, 2), (1, 2, 3)),          # ragged width
    ((1, 2, 3), 1, (1, 2, 3)),               # mixed levels
    ((1, 2, 3), (1, 2, (1, 2, 3)), (1, 2, 3)),
    (((1,) * 3,) * 3,) * 3,
    ((((1,) * 3,) * 3,) * 3,) * 3,           # deeper than any depth asked
    FOREIGN,                                 # canonical in another store
    (FOREIGN, FOREIGN, FOREIGN),
    tuple([[1, 2, 3]] * 3),                  # lists where tuples belong
]


@pytest.mark.parametrize("message", CORPUS, ids=repr)
def test_corpus(message):
    check(message)


def test_nesting_far_beyond_the_expected_depth_is_rejected_not_walked():
    message = (1, 2, 3)
    for _ in range(5000):
        message = (message, message, message)
    check(message, depths=(1, 2))


leaf = st.sampled_from([0, 1, 2, 3, 4, True, 1.0, 2.0, "1", None, BOTTOM]) | (
    st.lists(st.integers(0, 1), max_size=1)  # unhashable
)
array = st.recursive(
    leaf,
    lambda children: st.lists(children, min_size=2, max_size=4).map(tuple),
    max_leaves=30,
)
well_shaped = st.integers(1, 3).flatmap(
    lambda depth: st.lists(
        leaf, min_size=N ** depth, max_size=N ** depth
    ).map(lambda leaves: _fold(leaves, depth))
)


def _fold(leaves, depth):
    level = list(leaves)
    for _ in range(depth):
        level = [tuple(level[i:i + N]) for i in range(0, len(level), N)]
    return level[0]


@settings(max_examples=300, deadline=None)
@given(message=array | well_shaped)
def test_arbitrary_messages(message):
    check(message)
