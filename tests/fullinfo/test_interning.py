"""Interned vs. plain-tuple protocol runs: identical bytes, fewer walks.

The hash-consing kernel's promise to the protocols is that interning
is *purely* an optimisation.  These tests pin that promise at the
observable level — pickled sweep reports byte-identical between
Protocol 1 and the plain-tuple oracle in
``tests/fullinfo/reference_full_information.py`` — and pin the
asymptotics at the mechanism level: the interned receive path performs
no per-round validation walks (zero ``validate_array`` calls) and the
store holds O(rounds * n) nodes after a deep run, not O(n ** rounds).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.agreement.eig_agreement import eig_agreement_factory
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays import value_array
from repro.arrays.store import clear_shared_stores, shared_store
from repro.core.predicates import byzantine_agreement_predicate
from repro.fullinfo.decision import eig_byzantine_decision
from repro.fullinfo.protocol import (
    DerivedDecisionRule,
    FullInformationAutomaton,
    full_information_factory,
    full_information_sizer,
)
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig

from tests.fullinfo.reference_full_information import (
    reference_eig_agreement_factory,
    reference_full_information_factory,
)


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    clear_shared_stores()
    yield
    clear_shared_stores()


def _eig_sweep(config, factory, seeds=(0,)):
    return sweep(
        factory,
        config,
        input_patterns=[{p: p % 2 for p in config.process_ids}],
        fault_sets=[(1,)],
        adversary_makers=standard_adversary_makers(),
        seeds=seeds,
        predicate=byzantine_agreement_predicate(),
        max_rounds=config.t + 2,
        sizer=full_information_sizer(2, config.n),
        workers=1,
    )


def test_interned_and_plain_sweeps_are_byte_identical():
    config = SystemConfig(n=4, t=1)
    interned = _eig_sweep(
        config, eig_agreement_factory(config, [0, 1], default=0)
    )
    plain = _eig_sweep(
        config, reference_eig_agreement_factory(config, [0, 1], default=0)
    )
    assert pickle.dumps(interned) == pickle.dumps(plain)
    assert len(interned.violations) == 0
    assert interned.total_bits() == plain.total_bits()


def test_deep_run_matches_plain_where_plain_is_feasible():
    config = SystemConfig(n=3, t=0)
    states = {}
    for mode, factory in (
        ("interned", full_information_factory([0, 1])),
        ("plain", reference_full_information_factory([0, 1])),
    ):
        result = run_protocol(
            factory,
            config,
            inputs={1: 0, 2: 1, 3: 1},
            run_full_rounds=6,
            sizer=full_information_sizer(2, config.n),
        )
        states[mode] = {
            pid: process.state for pid, process in result.processes.items()
        }
    assert states["interned"] == states["plain"]
    # Pickles decode to the plain structure (pickle *streams* may
    # differ: interning shares more objects, so memo refs land in
    # different spots — the decoded value is what must agree).
    revived = pickle.loads(pickle.dumps(states["interned"]))
    assert revived == states["plain"]

    def all_plain(value):
        if isinstance(value, tuple):
            assert type(value) is tuple
            for component in value:
                all_plain(component)

    for state in revived.values():
        all_plain(state)


def test_interned_receive_skips_validation_walks(monkeypatch):
    calls = {"n": 0}
    real = value_array.validate_array

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(value_array, "validate_array", counting)
    config = SystemConfig(n=3, t=0)
    rounds = 8
    run_protocol(
        full_information_factory([0, 1]),
        config,
        inputs={1: 0, 2: 1, 3: 1},
        run_full_rounds=rounds,
    )
    interned_calls = calls["n"]
    calls["n"] = 0
    run_protocol(
        reference_full_information_factory([0, 1]),
        config,
        inputs={1: 0, 2: 1, 3: 1},
        run_full_rounds=rounds,
    )
    assert interned_calls == 0
    assert calls["n"] >= rounds * config.n


def test_store_stays_small_on_deep_runs():
    # 12 rounds at n = 3: final states stand for 3 ** 11 = 177147
    # leaves each.  The store must hold O(rounds * n) canonical nodes —
    # every broadcast state is one new node over last round's children.
    config = SystemConfig(n=3, t=0)
    rounds = 12
    run_protocol(
        full_information_factory([0, 1]),
        config,
        inputs={1: 0, 2: 1, 3: 1},
        run_full_rounds=rounds,
        sizer=full_information_sizer(2, config.n),
    )
    assert len(shared_store(config.n)) <= rounds * config.n


# -- the EIG decision rule against a reference resolver ----------------------


def reference_eig_decision(state, n, t, default, alphabet):
    """The pre-optimization resolver: recursive, repr-sorting tallies."""
    legal = frozenset(alphabet)
    depth = t + 1

    def normalise(leaf):
        try:
            return leaf if leaf in legal else default
        except TypeError:
            return default

    def leaf_at(node, path):
        for pid in path:
            node = node[pid - 1]
        return node

    def resolve(path):
        if len(path) == depth:
            return normalise(leaf_at(state, path))
        tally = {}
        children = 0
        for relayer in range(1, n + 1):
            if relayer in path:
                continue
            children += 1
            vote = resolve((relayer,) + path)
            tally[vote] = tally.get(vote, 0) + 1
        best_value, best_count = default, 0
        for vote, count in sorted(tally.items(), key=lambda item: repr(item[0])):
            if count > best_count:
                best_value, best_count = vote, count
        return best_value if best_count * 2 > children else default

    return resolve(())


def depth_arrays(n, depth, leaves):
    def build(d):
        if d == 0:
            return leaves
        return st.tuples(*[build(d - 1)] * n)

    return build(depth)


@given(
    depth_arrays(
        4, 2, st.sampled_from([0, 1, 2, "junk"])
    ),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_eig_matches_reference_resolver(state, intern):
    n, t = 4, 1
    if intern:
        state = shared_store(n).intern(state)
    decision = eig_byzantine_decision(
        state, n, t, process_id=1, default=0, alphabet=[0, 1]
    )
    assert decision == reference_eig_decision(
        state, n, t, default=0, alphabet=[0, 1]
    )


def test_eig_tie_resolves_to_default():
    # Root tally 2 vs 2: no strict majority, so the decision is the
    # shared default no matter how the tie is ordered.
    n, t = 4, 1
    column = (0, 0, 1, 1)
    state = tuple(column for _ in range(n))
    for default in (0, 1):
        assert eig_byzantine_decision(
            state, n, t, process_id=1, default=default, alphabet=[0, 1]
        ) == default
        assert reference_eig_decision(
            state, n, t, default=default, alphabet=[0, 1]
        ) == default


def test_eig_uniform_interned_shortcut():
    n, t = 5, 1
    for value, expected in ((1, 1), ("junk", 0)):
        plain = tuple(tuple(value for _ in range(n)) for _ in range(n))
        node = shared_store(n).intern(plain)
        fast = eig_byzantine_decision(
            node, n, t, process_id=1, default=0, alphabet=[0, 1]
        )
        slow = eig_byzantine_decision(
            plain, n, t, process_id=1, default=0, alphabet=[0, 1]
        )
        assert fast == slow == expected


# -- DerivedDecisionRule's persistent reconstruction memo --------------------


def test_derived_rule_reuses_reconstruction_across_rounds():
    config = SystemConfig(n=3, t=0)
    automaton = FullInformationAutomaton(config, [0, 1])
    transitions = {"n": 0}
    real_transition = automaton.transition

    def counting(process_id, messages):
        transitions["n"] += 1
        return real_transition(process_id, messages)

    automaton.transition = counting
    rule = DerivedDecisionRule(automaton, horizon=0)
    store = shared_store(config.n)
    state_one = store.intern((0, 1, 1))
    state_two = store.intern((state_one, state_one, state_one))

    assert rule(state_one, 1, 1) is BOTTOM  # no decision function: bottom
    first = transitions["n"]
    assert first > 0
    rule(state_one, 1, 1)
    assert transitions["n"] == first  # full memo hit
    rule(state_two, 2, 1)
    # Only the new top layer reconstructs: one transition per
    # (process, new node) pair, not another full recursion.
    assert transitions["n"] <= first + config.n ** 2
