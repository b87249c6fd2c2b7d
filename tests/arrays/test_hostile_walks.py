"""Every plain-tuple walker and protocol sizer against hostile payloads.

A correct processor — and the meter reading its traffic — must take
*any* message and shrug it off.  Everything here goes through
:func:`repro.arrays.value_array.fold_tree`, so each case must return
(or raise a library error) quickly, never ``RecursionError``, with the
answer of the tree the payload stands for
(:mod:`tests.arrays.reference_walks`).
"""

import collections
import random
import time

import pytest

from repro.adversary.base import Adversary
from repro.agreement.eig_agreement import eig_agreement_factory
from repro.agreement.srikanth_toueg import st_sizer
from repro.arrays.encoding import MessageSizer, encoded_array_bits
from repro.arrays.store import ArrayStore
from repro.arrays.value_array import (
    array_depth,
    array_leaves,
    count_leaves,
    fold_tree,
    unique_leaves,
    validate_array,
)
from repro.avalanche.protocol import avalanche_factory
from repro.compact.authenticated_variant import auth_sizer
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.crash_variant import CrashPayload, crash_sizer
from repro.compact.payload import CompactPayload, compact_sizer
from repro.core.automaton import AutomatonProcess
from repro.errors import EncodingError, ProtocolViolation
from repro.fullinfo.protocol import (
    FullInformationAutomaton,
    full_information_sizer,
)
from repro.obs import EventLog, Observer, observing
from repro.obs.events import read_jsonl, validate_records
from repro.runtime.engine import run_protocol
from repro.runtime.network import _default_sizer
from repro.runtime.render import summarise_payload
from repro.types import BOTTOM, SystemConfig
from tests.arrays import reference_walks as reference
from tests.arrays.builders import map_leaves
from tests.conftest import nested_tuple

CONFIG = SystemConfig(n=4, t=1)
SIZER = MessageSizer(value_alphabet_size=2, n=CONFIG.n)  # 1-bit values, 2-bit ids
AUTH = auth_sizer(CONFIG, 2)


def increment(leaf):
    return leaf + 1 if type(leaf) is int else leaf


# name -> (walker, its answer on nested_tuple(width, levels) given the
# tree's node and leaf counts).
WALKERS = {
    "measure": (SIZER.measure, lambda nodes, leaves: 2 * nodes + leaves),
    "measure_value_array": (
        SIZER.measure_value_array, lambda nodes, leaves: 2 * nodes + leaves,
    ),
    "measure_index_array": (
        SIZER.measure_index_array, lambda nodes, leaves: 2 * nodes + 2 * leaves,
    ),
    "compact_sizer": (
        compact_sizer(CONFIG, 2), lambda nodes, leaves: 2 * nodes + leaves,
    ),
    "compact_sizer votes": (
        lambda x: compact_sizer(CONFIG, 2)(
            CompactPayload(main=x, votes=((1, (x, BOTTOM, x, x)),))
        ),
        lambda nodes, leaves: 4 * (2 * nodes + leaves),
    ),
    "crash_sizer": (
        crash_sizer(CONFIG, 2), lambda nodes, leaves: 2 * nodes + leaves,
    ),
    "crash_sizer patches": (
        lambda x: crash_sizer(CONFIG, 2)(
            CrashPayload(main=x, patches=(((1, 2), x),))
        ),
        # main, the patched value, and the (boundary, sender) key.
        lambda nodes, leaves: 2 * (2 * nodes + leaves) + 2 + 2 + 2,
    ),
    "auth_sizer": (
        lambda x: AUTH({"main": x, "patches": (("cert", 1, 2, x, "s"),)}),
        # main; owner id, core and signature of the certificate.
        lambda nodes, leaves: 2 * (2 * nodes + leaves) + 2 + 64,
    ),
    "auth_sizer signed": (
        lambda x: AUTH({"main": ("signed", x, "s")}),
        lambda nodes, leaves: 2 * nodes + leaves + 64,
    ),
    "st_sizer": (st_sizer(CONFIG, 2), lambda nodes, leaves: 0),
    "_default_sizer": (
        _default_sizer, lambda nodes, leaves: 2 * nodes + 8 * leaves,
    ),
    "count_leaves": (count_leaves, lambda nodes, leaves: leaves),
    "unique_leaves": (unique_leaves, lambda nodes, leaves: ((int, 0),)),
    "map_leaves": (
        lambda x: unique_leaves(map_leaves(increment, x)),
        lambda nodes, leaves: ((int, 1),),
    ),
    "map_leaves keeps the shape": (
        lambda x: count_leaves(map_leaves(increment, x)),
        lambda nodes, leaves: leaves,
    ),
}


def timed(walker, payload):
    """``walker(payload)``, which must take under a second."""
    started = time.perf_counter()
    try:
        return walker(payload)
    finally:
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("name", WALKERS)
@pytest.mark.parametrize(
    "width,levels",
    [(1, 5000), (CONFIG.n, 5000), (2, 60), (10 ** 5, 1)],
    ids=["deep", "deep-and-wide", "shared-pair", "wide"],
)
def test_the_tree_sum_answer_in_under_a_second(name, width, levels):
    walker, expected = WALKERS[name]
    nodes = sum(width ** level for level in range(levels))
    assert timed(walker, nested_tuple(width, levels)) == expected(
        nodes, width ** levels
    )


class ReprRaises:
    """An object whose own ``repr`` raises."""

    def __repr__(self):
        raise ValueError("no repr")


#: An unrelated class that only shares a round payload's name.
LookAlike = type("CompactPayload", (), {})


class PosingAsTuple:
    """Answers ``tuple`` when ``isinstance`` asks for its class."""

    @property
    def __class__(self):
        return tuple


class RaisingTuple(tuple):
    def __len__(self):
        raise ValueError("no len")

    def __getitem__(self, index):
        raise ValueError("no item")


class RaisingList(list):
    def __len__(self):
        raise ValueError("no len")


class RaisingMeta(type):
    """A metaclass whose name, hash and equality all raise."""

    @property
    def __name__(cls):
        raise ValueError("no name")

    def __hash__(cls):
        raise ValueError("no hash")

    def __eq__(cls, other):
        raise ValueError("no eq")


class Metaclassed(metaclass=RaisingMeta):
    pass


def deep_list(levels=100_000):
    """A list nested ``levels`` deep: its ``repr`` recurses."""
    root = node = []
    for _ in range(levels):
        node.append([])
        node = node[0]
    return root


def test_summarise_payload_reads_the_shape_only():
    assert timed(summarise_payload, nested_tuple(1)) == "array[d5000 w1]"
    assert timed(summarise_payload, nested_tuple(2, 60)) == "array[d60 w2]"
    nested_main = None
    for _ in range(5000):
        nested_main = CompactPayload(main=nested_main)
    assert timed(summarise_payload, nested_main) == "core:<CompactPayload> votes…"
    # Containers by kind and length, never by repr or their own code;
    # repr only on exact builtin scalars, cut short first.
    assert timed(summarise_payload, deep_list()) == "list(1)"
    assert timed(summarise_payload, ReprRaises()) == "<ReprRaises>"
    assert timed(summarise_payload, LookAlike()) == "<CompactPayload>"
    assert timed(summarise_payload, PosingAsTuple()) == "<PosingAsTuple>"
    assert timed(summarise_payload, RaisingTuple(((2, 3), 1))) == "array[d2 w2]"
    assert timed(summarise_payload, RaisingList([1, 2])) == "list(2)"
    assert timed(summarise_payload, Metaclassed()) == "<Metaclassed>"
    assert timed(summarise_payload, {1, 2}) == "set(2)"
    assert timed(summarise_payload, "x" * 10 ** 7) == "'" + "x" * 26 + "…"
    giant = 10 ** 5000
    assert timed(summarise_payload, giant) == f"int({giant.bit_length()} bits)"
    hostile_fields = CompactPayload(main=deep_list(), votes=ReprRaises())
    assert timed(summarise_payload, hostile_fields) == "core:list(1) votes:?"


def test_array_leaves_keeps_its_own_stack():
    assert timed(lambda x: list(array_leaves(x)), nested_tuple(1)) == [0]


# -- the shape walks: the objects the sender built, not the tree --------------


def automaton_depth_seen(payload):
    """The depth ``FullInformationAutomaton.decision`` — no gate in front
    of it — reads off a state built from three copies of ``payload``."""
    config = SystemConfig(n=3, t=1)
    depths = []

    def rule(state, depth, process_id):
        depths.append(depth)
        return BOTTOM

    process = AutomatonProcess(
        1, config, 0, FullInformationAutomaton(config, [0, 1], rule)
    )
    process.receive(1, {p: payload for p in config.process_ids})
    return depths[-1]


# 3 ** 40 leaves standing on 40 tuple objects.
SHAPE_WALKS = {
    "array_depth": (lambda x: array_depth(x, 3), 40),
    "validate_array": (lambda x: validate_array(x, 3), True),
    "validate_array depth": (lambda x: validate_array(x, 3, depth=40), True),
    "validate_array too deep": (lambda x: validate_array(x, 3, depth=39), False),
    "validate_array leaves": (
        lambda x: validate_array(x, 3, leaf_ok=lambda leaf: leaf == 0), True,
    ),
    "FullInformationAutomaton": (automaton_depth_seen, 41),
}


@pytest.mark.parametrize("name", SHAPE_WALKS)
def test_shape_walks_cost_the_shared_objects_not_the_tree(name):
    walker, expected = SHAPE_WALKS[name]
    assert timed(walker, nested_tuple(3, 40)) == expected


def test_a_shared_object_at_two_levels_is_ragged_not_deep():
    # The identity memo answers for an object wherever it recurs, so a
    # repeat at another level must still read as the ragged array it is.
    pair = (0, 0, 0)
    with pytest.raises(ProtocolViolation):
        array_depth((pair, (pair, pair, pair), pair), 3)
    assert array_depth(((pair,) * 3,) * 3, 3) == 3


def self_containing():
    loop = [1]
    loop.append(loop)
    return loop


Point = collections.namedtuple("Point", "x y")

ODD_LEAVES = {
    "list containing itself": self_containing,
    "unhashable": lambda: [1, 2],
    "nan": lambda: float("nan"),
    "giant int": lambda: 10 ** 400,
    "tuple subclass": lambda: Point(0, (1, 0)),
    "bottom": lambda: BOTTOM,
}


@pytest.mark.parametrize("name", WALKERS)
@pytest.mark.parametrize("leaf", ODD_LEAVES)
def test_odd_leaves_return_or_raise_a_library_error(name, leaf):
    walker, _ = WALKERS[name]
    odd = ODD_LEAVES[leaf]()
    # unique_leaves hashes what it deduplicates: its stated contract.
    hashes = name in ("unique_leaves", "map_leaves")
    allowed = (ProtocolViolation, EncodingError) + (
        (TypeError,) if hashes else ()
    )
    for payload in (odd, (odd, 0), ((0, odd), (odd, 0))):
        try:
            timed(walker, payload)
        except allowed:
            pass
        timed(summarise_payload, payload)


# -- equality with the recursive reference on random shared trees ------------

SCALARS = (0, 1, 2, 4, 5, True, False, "v", 2.5, None, BOTTOM)


def random_tree(rng, interned=()):
    """A small tree whose levels draw children, with repeats, from one
    pool — so subtrees are shared objects, as in a broadcast state."""
    pool = list(SCALARS) + list(interned)
    for _ in range(rng.randint(1, 6)):
        pool.append(tuple(
            rng.choice(pool) for _ in range(rng.randint(0, 3))
        ))
    return pool[-1]


def interned_nodes():
    store = ArrayStore(2)
    return (
        store.intern((0, 1)),
        store.intern(((0, 1), (1, BOTTOM))),
        store.intern(((True, 1), (1, True))),
    )


@pytest.mark.parametrize("seed", range(200))
def test_every_rewritten_walker_equals_the_recursive_reference(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, interned_nodes() if seed % 2 else ())

    assert fold_tree(tree, repr, ",".join) == reference.fold(
        tree, repr, ",".join
    )
    assert list(array_leaves(tree)) == reference.leaves(tree)
    assert count_leaves(tree) == len(reference.leaves(tree))
    assert unique_leaves(tree) == reference.unique(tree)
    assert map_leaves(repr, tree) == reference.mapped(repr, tree)
    assert encoded_array_bits(tree, 3) == reference.bits(tree, lambda _: 3)
    sizer = MessageSizer(value_alphabet_size=1024, n=4)  # 10 and 2 bits
    assert sizer.measure(tree) == reference.bits(tree, sizer._measure_leaf)
    assert sizer.measure_value_array(tree) == reference.bits(
        tree, lambda _: 10
    )


@pytest.mark.parametrize("seed", range(50))
def test_default_sizer_equals_the_reference_on_every_container(seed):
    rng = random.Random(seed)
    pool = list(SCALARS)
    for _ in range(rng.randint(1, 6)):
        children = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        hashable = [c for c in children if not isinstance(c, (list, dict, set))]
        pool.append(rng.choice((
            tuple(children),
            list(children),
            dict(enumerate(children)),
            # (True and 1 are one set element: build, then measure.)
            frozenset(c for c in hashable if _hashable(c)),
        )))
    tree = pool[-1]
    assert _default_sizer(tree) == reference.bits(
        tree, lambda _: 8, reference.ANY_CONTAINER
    )


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_auth_sizer_references_are_leaves_of_the_fold():
    def reference_core(x):
        if isinstance(x, tuple) and len(x) == 3 and x[0] == "ref":
            return SIZER.measure(x[1]) + 64
        if isinstance(x, tuple):
            return 2 + sum(reference_core(child) for child in x)
        return SIZER.measure(x)

    ref = ("ref", 2, "0123456789abcdef")
    hostile_ref = ("ref", nested_tuple(1), "x")
    for core in (ref, (ref, ref, 3, BOTTOM), ((ref, 1), (0, ref)), ("ref", 1)):
        assert AUTH({"main": core}) == reference_core(core)
    assert AUTH({"main": (hostile_ref, 1)}) == 2 + (
        reference.nested_bits(1, 5000, 1) + 64
    ) + 2


def test_the_closed_form_is_the_reference():
    for width, levels in ((1, 7), (2, 5), (3, 3), (5, 1)):
        assert reference.nested_bits(width, levels, 3) == reference.bits(
            nested_tuple(width, levels), lambda _: 3
        )


# -- the two end-to-end runs that raised RecursionError ----------------------


class Shipper(Adversary):
    """Every faulty sender ships one fixed payload to everyone."""

    def __init__(self, faulty_ids, payload):
        super().__init__(faulty_ids)
        self.payload = payload

    def outgoing(self, round_number, sender, context):
        return {p: self.payload for p in self.config.process_ids}


PAYLOADS = {
    "deep": (1, 5000),
    "deep-and-wide": (CONFIG.n, 5000),
    "shared-pair": (2, 60),
}


@pytest.mark.parametrize("schedule", ["lockstep", "async"], indirect=True)
@pytest.mark.parametrize("shape", PAYLOADS)
@pytest.mark.usefixtures("schedule")
class TestMeteredHostileRuns:
    """``meter_adversary=True`` charges a faulty sender's payload as the
    tree it stands for, and cannot raise on its shape."""

    def metered_and_not(self, run, shape):
        inputs = {p: p % 2 for p in CONFIG.process_ids}
        adversary = lambda: Shipper([4], nested_tuple(*PAYLOADS[shape]))
        metered, unmetered = (
            run(inputs, adversary(), flag) for flag in (True, False)
        )
        assert metered.decisions == unmetered.decisions
        assert metered.rounds == unmetered.rounds
        hostile_bits = reference.nested_bits(*PAYLOADS[shape], leaf_bits=1)
        assert metered.metrics.total_bits == (
            unmetered.metrics.total_bits
            + metered.rounds * CONFIG.n * hostile_bits
        )

    def test_compact_byzantine_agreement(self, shape):
        self.metered_and_not(
            lambda inputs, adversary, flag: run_compact_byzantine_agreement(
                CONFIG, inputs, [0, 1], k=1, adversary=adversary,
                meter_adversary=flag,
            ),
            shape,
        )

    def test_eig(self, shape):
        self.metered_and_not(
            lambda inputs, adversary, flag: run_protocol(
                eig_agreement_factory(CONFIG, [0, 1], default=0),
                CONFIG, inputs, adversary=adversary,
                max_rounds=CONFIG.t + 2,
                sizer=full_information_sizer(2, CONFIG.n),
                meter_adversary=flag,
            ),
            shape,
        )


#: Payloads whose summary crashed an observed run that succeeds
#: unobserved: a repr that recurses, a repr that raises, and a class
#: posing as a round payload by name.
UNREPRESENTABLE = {
    "deep list": deep_list,
    "repr raises": ReprRaises,
    "look-alike": LookAlike,
}


@pytest.mark.parametrize("schedule", ["lockstep", "async"], indirect=True)
@pytest.mark.parametrize("name", UNREPRESENTABLE)
@pytest.mark.usefixtures("schedule")
def test_an_observed_run_summarises_any_payload(name, tmp_path):
    inputs = {p: p % 2 for p in CONFIG.process_ids}

    def run():
        return run_protocol(
            avalanche_factory(), CONFIG, inputs,
            adversary=Shipper([4], UNREPRESENTABLE[name]()),
            run_full_rounds=4,
        )

    unobserved = run()
    path = tmp_path / "events.jsonl"
    with observing(Observer(events=EventLog(path))):
        observed = run()
    assert observed.decisions == unobserved.decisions
    assert observed.metrics.total_bits == unobserved.metrics.total_bits
    records = read_jsonl(path)
    assert validate_records(records) == []
    assert [
        record["round"] for record in records
        if record["kind"] == "send" and record["faulty"]
    ] == [1, 2, 3, 4]
