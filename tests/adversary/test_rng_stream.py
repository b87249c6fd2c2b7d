"""The adversary's RNG substream is built on its first draw.

The engine binds an adversary to a function that derives
``derive_rng(seed, "adversary")`` rather than to the generator itself,
so a deterministic strategy never builds one (and a small run never
imports numpy).  What a random strategy draws must not change: every
draw equals the eagerly derived reference, and a
:class:`StrategyTable`'s sub-strategies still share one stream.
"""

import numpy as np
import pytest

from repro.adversary.base import Adversary
from repro.adversary.byzantine import RandomGarbageAdversary, StrategyTable
from repro.adversary.omission import OmissionAdversary
from repro.analysis.sweeps import standard_adversary_makers
from repro.avalanche.protocol import avalanche_factory
from repro.fuzz.adversary import FuzzAdversary
from repro.runtime.engine import run_protocol
from repro.runtime.rng import derive_rng, make_rng
from repro.types import SystemConfig

CONFIG = SystemConfig(n=7, t=2)
INPUTS = {p: p % 2 for p in CONFIG.process_ids}
SEEDS = (0, 5, 123)


def random_strategies():
    """Fresh instances of every strategy that draws from its stream."""
    return {
        "garbage": RandomGarbageAdversary([1, 2], palette=[0, 1]),
        "omission": OmissionAdversary([1, 2], avalanche_factory()),
        "fuzz": FuzzAdversary([1, 2], palette=(0, 1)),
        "table": StrategyTable({
            1: RandomGarbageAdversary([1], palette=[0, 1]),
            2: OmissionAdversary([2], avalanche_factory()),
        }),
    }


def eagerly_bound(adversary: Adversary) -> Adversary:
    """``adversary`` bound to the generator itself, as before laziness."""
    bind = adversary.bind

    def eager(config, rng):
        bind(config, rng() if callable(rng) else rng)

    adversary.bind = eager
    return adversary


def attack(adversary: Adversary, seed: int):
    """Every message the adversary sent in one execution, in order."""
    sent = []
    outgoing = adversary.outgoing

    def recording(round_number, sender, context):
        messages = outgoing(round_number, sender, context)
        sent.append((round_number, sender, sorted(messages.items())))
        return messages

    adversary.outgoing = recording
    result = run_protocol(
        avalanche_factory(), CONFIG, INPUTS, adversary=adversary,
        run_full_rounds=6, seed=seed,
    )
    return sent, result.decisions, result.metrics.total_bits


@pytest.mark.parametrize("name", sorted(random_strategies()))
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_the_eagerly_derived_stream(name, seed):
    lazy = attack(random_strategies()[name], seed)
    eager = attack(eagerly_bound(random_strategies()[name]), seed)
    assert lazy == eager
    assert lazy[0]  # the adversary spoke, so it drew


def test_the_stream_is_the_seeds_adversary_substream():
    adversary = RandomGarbageAdversary([1, 2], palette=list(range(1000)))
    sent, _, _ = attack(adversary, seed=9)
    reference = derive_rng(9, "adversary")
    first_round = [messages for round_number, _, messages in sent
                   if round_number == 1]
    drawn = [value for messages in first_round for _, value in messages]
    assert drawn == [
        int(reference.integers(0, 1000)) for _ in range(len(drawn))
    ]


def test_strategy_table_members_share_the_tables_stream():
    table = StrategyTable({
        1: RandomGarbageAdversary([1], palette=list(range(1000))),
        2: RandomGarbageAdversary([2], palette=list(range(1000))),
    })
    table.bind(CONFIG, lambda: derive_rng(4, "adversary"))
    members = [table._strategies[1], table._strategies[2]]
    assert members[0].rng is members[1].rng is table.rng


@pytest.mark.parametrize(
    "name", ["silent", "equivocator", "splitter", "malformed", "collusion"]
)
def test_deterministic_strategies_never_build_a_generator(name, monkeypatch):
    built = []
    monkeypatch.setattr(
        np.random, "default_rng", lambda *args: built.append(args)
    )
    maker = dict(standard_adversary_makers())[name]
    run_protocol(
        avalanche_factory(), CONFIG, INPUTS, adversary=maker([1, 2]),
        run_full_rounds=4, seed=3,
    )
    assert built == []


def test_unbound_adversary_falls_back_to_seed_zero():
    adversary = RandomGarbageAdversary([1])
    assert adversary.rng.integers(0, 2**32, 8).tolist() == (
        make_rng(0).integers(0, 2**32, 8).tolist()
    )
    assert adversary.rng is adversary.rng


def test_rebinding_starts_a_fresh_stream():
    adversary = RandomGarbageAdversary([1])
    draws = []
    for _ in range(2):
        adversary.bind(CONFIG, lambda: derive_rng(7, "adversary"))
        draws.append(adversary.rng.integers(0, 2**32, 4).tolist())
    assert draws[0] == draws[1]
