"""The kernel firing squad against the plain-tuple oracle.

``FiringSquadProcess`` validates through the shared
:class:`~repro.fullinfo.gate.ReceiveGate` and keeps interned states;
``tests/agreement/reference_firing_squad.py`` keeps the recursive
plain-tuple loop it replaced.  Moving to the kernel must be invisible:
same payloads on the wire, same metered bits, same instance states
(typed leaves included), same fire rounds, same pickled results — for
honest traffic and for every kind of Byzantine junk a view can be.
"""

import dataclasses
import pathlib
import random

import pytest

from repro.adversary.base import Adversary
from repro.agreement.firing_squad import (
    FiringSquadProcess,
    firing_squad_factory,
)
from repro.arrays.value_array import array_depth
from repro.fuzz.campaign import replay_case
from repro.fuzz.case import FuzzCase, load_case
from repro.fuzz.protocols import get_spec, register, unregister
from repro.runtime.engine import run_protocol
from repro.runtime.network import _default_sizer
from repro.runtime.rng import derive_rng
from repro.types import BOTTOM, SystemConfig

from tests.arrays.builders import map_leaves, replace_at
from tests.conftest import canonical_bytes, nested_tuple, to_plain
from tests.agreement.reference_firing_squad import (
    ReferenceFiringSquadProcess,
    reference_firing_squad_factory,
)

CORPUS_CASE = (
    pathlib.Path(__file__).parent.parent
    / "fuzz" / "corpus" / "firing-squad-a58b67ef3307.json"
)


def typed(value):
    """``value`` with every leaf's type spelled out (``True`` is not ``1``)."""
    if isinstance(value, (tuple, list)):
        return [typed(component) for component in value]
    return (type(value).__name__, repr(value))


# -- one hostile view per kind ------------------------------------------------


def _poke(view, leaf, n, rng):
    """``view`` with one randomly chosen leaf replaced by ``leaf``."""
    path = tuple(
        rng.randrange(1, n + 1) for _ in range(array_depth(view, n))
    )
    return replace_at(view, path, leaf)


def corrupt_view(kind, view, n, rng):
    view = to_plain(view)
    if kind == "honest":
        return view
    if kind == "flip":
        return map_leaves(
            lambda leaf: 1 - leaf if rng.random() < 0.3 else leaf, view
        )
    if kind == "ragged":
        # One component a level too deep (or, at depth 0, a tuple).
        return _poke(view, (0,) * n, n, rng) if isinstance(view, tuple) else (0, 1)
    if kind == "wrong-n":
        return view + (0,) if isinstance(view, tuple) else (0,) * (n + 1)
    if kind == "too-deep":
        return (view,) * n
    if kind == "too-shallow":
        return view[0] if isinstance(view, tuple) else BOTTOM
    if kind == "leaf-2":
        return _poke(view, 2, n, rng)
    if kind == "typed":
        return map_leaves(bool, view)
    if kind == "unhashable":
        return _poke(view, [1], n, rng)
    if kind == "bottom-leaf":
        return _poke(view, BOTTOM, n, rng)
    if kind == "bottom":
        return BOTTOM
    if kind == "deep-5000":
        return nested_tuple(n)
    raise AssertionError(kind)


VIEW_KINDS = (
    "honest", "flip", "ragged", "wrong-n", "too-deep", "too-shallow",
    "leaf-2", "typed", "unhashable", "bottom-leaf", "bottom", "deep-5000",
)

#: Whole-payload junk: everything that is not a ``{start: view}`` map.
NON_DICT_PAYLOADS = (BOTTOM, None, 1, (0, 1), [0, 1], "go")


def corrupt_payload(template, n, rng):
    """A seeded Byzantine payload derived from an honest one."""
    if rng.random() < 0.15:
        return rng.choice(NON_DICT_PAYLOADS + (nested_tuple(n),))
    payload = {}
    for start, view in template.items():
        if rng.random() < 0.1:
            continue  # missing start key
        payload[start] = corrupt_view(rng.choice(VIEW_KINDS), view, n, rng)
    if rng.random() < 0.1:
        payload["no-such-instance"] = (0,) * n
    return payload


# -- direct drive: one processor of each kind, same inputs --------------------


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_states_payloads_and_fires_match_the_oracle(n, t, seed):
    config = SystemConfig(n=n, t=t)
    rng = random.Random(f"direct-{n}-{t}-{seed}")
    go_round = rng.choice([BOTTOM, 1, 2, 3])
    kernel = FiringSquadProcess(1, config, go_round)
    oracle = ReferenceFiringSquadProcess(1, config, go_round)
    hostile = rng.sample(range(2, n + 1), t)
    for round_number in range(1, t + 7):
        sent = kernel.outgoing(round_number)[1]
        expected = oracle.outgoing(round_number)[1]
        assert sent == expected
        assert typed(sorted(sent.items())) == typed(sorted(expected.items()))
        assert _default_sizer(sent) == _default_sizer(expected)

        # Peers echo this processor's views with their own GO bit
        # mixed in; the hostile ones send seeded junk.
        incoming = {}
        for sender in config.process_ids:
            if sender in hostile:
                incoming[sender] = corrupt_payload(expected, n, rng)
            else:
                bit = rng.randrange(2)
                incoming[sender] = {
                    start: map_leaves(lambda leaf: leaf | bit, to_plain(view))
                    for start, view in expected.items()
                }
        kernel.receive(round_number, incoming)
        oracle.receive(round_number, incoming)

        assert kernel.snapshot() == oracle.snapshot()
        assert kernel.decision_round == oracle.decision_round
        states = oracle.states()
        assert sorted(kernel._instances) == sorted(states)
        for start, state in states.items():
            assert typed(kernel._instances[start]) == typed(state)


@pytest.mark.parametrize("kind", VIEW_KINDS)
def test_each_kind_of_view_lands_as_in_the_oracle(kind):
    """Every sender sends the same kind of view, legal or junk."""
    config = SystemConfig(n=4, t=1)
    rng = random.Random(kind)
    kernel = FiringSquadProcess(1, config, 1)
    oracle = ReferenceFiringSquadProcess(1, config, 1)
    for round_number in (1, 2):
        template = oracle.outgoing(round_number)[1]
        kernel.outgoing(round_number)
        incoming = {
            sender: {
                start: corrupt_view(kind, view, config.n, rng)
                for start, view in template.items()
            }
            for sender in config.process_ids
        }
        kernel.receive(round_number, incoming)
        oracle.receive(round_number, incoming)
        for start, state in oracle.states().items():
            assert typed(kernel._instances[start]) == typed(state)
        assert kernel.decision == oracle.decision


# -- full executions ----------------------------------------------------------


class HostileViewAdversary(Adversary):
    """Seeded junk derived from the round's correct traffic."""

    def __init__(self, faulty_ids, seed):
        super().__init__(faulty_ids)
        self.seed = seed

    def outgoing(self, round_number, sender, context):
        messages = {}
        for receiver in context.config.process_ids:
            rng = random.Random(
                f"{self.seed}-{round_number}-{sender}-{receiver}"
            )
            template = context.sample_correct_message(receiver)
            messages[receiver] = corrupt_payload(
                template, context.config.n, rng
            )
        return messages


@pytest.mark.parametrize("schedule", ["lockstep", "async:3:5"], indirect=True)
@pytest.mark.parametrize("seed", range(6))
def test_executions_pickle_identical_to_the_oracle(seed, schedule):
    config = SystemConfig(n=7, t=2)
    rng = random.Random(f"run-{seed}")
    inputs = {
        p: rng.choice([BOTTOM, 1, 2, 3]) for p in config.process_ids
    }
    faulty = rng.sample(list(config.process_ids), config.t)
    results = [
        run_protocol(
            factory,
            config,
            inputs,
            adversary=HostileViewAdversary(faulty, seed),
            run_full_rounds=9,
            seed=seed,
        )
        for factory in (
            firing_squad_factory(), reference_firing_squad_factory()
        )
    ]
    kernel, oracle = results
    assert kernel.decisions == oracle.decisions
    assert kernel.decision_rounds == oracle.decision_rounds
    assert kernel.metrics.total_bits == oracle.metrics.total_bits
    assert canonical_bytes(kernel) == canonical_bytes(oracle)


# -- the fuzz harness's own adversary, and the corpus -------------------------

REFERENCE_TARGET = "firing-squad-reference"


@pytest.fixture
def reference_target():
    register(dataclasses.replace(
        get_spec("firing-squad"),
        name=REFERENCE_TARGET,
        build=lambda config: reference_firing_squad_factory(),
    ))
    try:
        yield
    finally:
        unregister(REFERENCE_TARGET)


def _replay_both(case):
    kernel = replay_case(case)
    oracle = replay_case(case.with_(protocol=REFERENCE_TARGET))
    assert kernel.violations == oracle.violations == ()
    assert kernel.result.metrics.total_bits == oracle.result.metrics.total_bits
    assert canonical_bytes(kernel.result) == canonical_bytes(oracle.result)


def test_corpus_case_replays_identically(reference_target):
    _replay_both(load_case(CORPUS_CASE))


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_adversary_cases_replay_identically(reference_target, seed):
    config = SystemConfig(n=7, t=2)
    spec = get_spec("firing-squad")
    rng = derive_rng(seed, "firing-squad-equivalence")
    inputs = spec.sample_inputs(config, rng)
    faulty = tuple(sorted(
        int(p) + 1 for p in rng.permutation(config.n)[: config.t]
    ))
    _replay_both(FuzzCase.build(
        protocol="firing-squad", n=config.n, t=config.t,
        seed=int(rng.integers(0, 2 ** 31)), inputs=inputs, faulty=faulty,
    ))
