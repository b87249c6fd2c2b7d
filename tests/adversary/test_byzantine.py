"""Tests for Byzantine adversary strategies."""

import inspect
import random
import typing

import pytest

from repro.adversary import (
    CollusionAdversary,
    EquivocatingAdversary,
    MalformedArrayAdversary,
    PassiveAdversary,
    RandomGarbageAdversary,
    SilentAdversary,
    StrategyTable,
    VoteSplitterAdversary,
)
from repro.adversary import byzantine
from repro.adversary.base import RoundContext
from repro.adversary.byzantine import _two_leading
from repro.errors import ConfigurationError
from repro.runtime.node import broadcast
from repro.runtime.rng import make_rng
from repro.types import BOTTOM, SystemConfig

from tests.conftest import typed


def context_for(config, correct_outgoing=None, inputs=None):
    return RoundContext(
        config=config,
        round_number=1,
        correct_outgoing=correct_outgoing or {},
        processes={},
        inputs=inputs or {p: 0 for p in config.process_ids},
    )


@pytest.fixture
def config():
    return SystemConfig(n=7, t=2)


def bound(adversary, config, seed=0):
    adversary.bind(config, make_rng(seed))
    return adversary


class TestBinding:
    def test_too_many_faulty_rejected(self, config):
        with pytest.raises(ConfigurationError):
            bound(SilentAdversary([1, 2, 3]), config)

    def test_out_of_range_id_rejected(self, config):
        with pytest.raises(ConfigurationError):
            bound(SilentAdversary([99]), config)

    def test_passive_owns_nothing(self, config):
        adversary = bound(PassiveAdversary(), config)
        assert adversary.faulty_ids == frozenset()


class TestSilent(object):
    def test_sends_nothing(self, config):
        adversary = bound(SilentAdversary([1]), config)
        assert adversary.outgoing(1, 1, context_for(config)) == {}


class TestRandomGarbage:
    def test_palette_respected(self, config):
        adversary = bound(RandomGarbageAdversary([1], palette=["x", "y"]), config)
        messages = adversary.outgoing(1, 1, context_for(config))
        assert set(messages) == set(config.process_ids)
        assert set(messages.values()) <= {"x", "y"}

    def test_defaults_to_input_values(self, config):
        adversary = bound(RandomGarbageAdversary([1]), config)
        inputs = {p: "iv" for p in config.process_ids}
        messages = adversary.outgoing(1, 1, context_for(config, inputs=inputs))
        assert set(messages.values()) == {"iv"}

    def test_deterministic_per_seed(self, config):
        runs = []
        for _ in range(2):
            adversary = bound(
                RandomGarbageAdversary([1], palette=list(range(50))), config, seed=3
            )
            runs.append(adversary.outgoing(1, 1, context_for(config)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [4, 7, 10, 13])
    @pytest.mark.parametrize("palette_size", range(1, 8))
    def test_one_draw_per_burst_is_the_scalar_stream(self, n, palette_size):
        # A burst draws its n picks at once; the stream must be the one
        # n scalar draws in receiver order make, with other draws from
        # the same generator interleaved between bursts.
        config = SystemConfig(n=n, t=1)
        palette = [f"v{index}" for index in range(palette_size)]
        for seed in range(12):
            adversary = bound(
                RandomGarbageAdversary([1], palette=palette), config, seed=seed
            )
            twin = make_rng(seed)
            for round_number in range(1, 4):
                messages = adversary.outgoing(
                    round_number, 1, context_for(config)
                )
                assert messages == {
                    receiver: palette[int(twin.integers(0, palette_size))]
                    for receiver in config.process_ids
                }
                assert adversary.rng.random() == twin.random()


class TestEquivocating:
    def test_two_faces(self, config):
        adversary = bound(EquivocatingAdversary([1], "a", "b"), config)
        messages = adversary.outgoing(1, 1, context_for(config))
        values = set(messages.values())
        assert values == {"a", "b"}
        # Low half gets a, high half gets b.
        assert messages[1] == "a"
        assert messages[config.n] == "b"


class TestVoteSplitter:
    def test_splits_leading_values(self, config):
        outgoing = {
            sender: {receiver: sender % 2 for receiver in config.process_ids}
            for sender in (2, 3, 4, 5, 6, 7)
        }
        adversary = bound(VoteSplitterAdversary([1]), config)
        messages = adversary.outgoing(1, 1, context_for(config, outgoing))
        assert set(messages.values()) == {0, 1}

    def test_silent_when_no_votes(self, config):
        adversary = bound(VoteSplitterAdversary([1]), config)
        assert adversary.outgoing(1, 1, context_for(config)) == {}

    @pytest.mark.parametrize("seed", range(200))
    def test_leader_and_runner_up_are_the_repr_sorted_pair(self, seed):
        rng = random.Random(seed)
        tally = {}
        for _ in range(rng.randint(1, 9)):
            vote = rng.choice(
                [0, 1, 2, True, "a", "b", 2.5, None, ("x",), -1, 10]
            )
            tally[vote] = rng.randint(1, 4)
        ranked = sorted(
            tally.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        leader = ranked[0][0]
        runner_up = ranked[1][0] if len(ranked) > 1 else leader
        got = _two_leading(tally)
        assert [typed(vote) for vote in got] == [
            typed(leader), typed(runner_up)
        ]


class TestMalformed:
    def test_payloads_are_structurally_bad(self, config):
        from repro.arrays.value_array import validate_array

        adversary = bound(MalformedArrayAdversary([1]), config)
        for round_number in range(1, 6):
            for payload in adversary.outgoing(
                round_number, 1, context_for(config)
            ).values():
                assert not validate_array(payload, config.n, depth=1)


    def test_menu_is_built_once(self, config):
        adversary = bound(MalformedArrayAdversary([1, 2]), config)
        sent = [
            adversary.outgoing(round_number, sender, context_for(config))
            for round_number in range(1, 4)
            for sender in (1, 2)
        ]
        objects = {id(payload) for burst in sent for payload in burst.values()}
        assert len(objects) == 5


class TestCollusion:
    def test_mirrors_correct_traffic(self, config):
        outgoing = {
            sender: {receiver: f"m{sender}" for receiver in config.process_ids}
            for sender in (2, 3, 4, 5, 6, 7)
        }
        adversary = bound(CollusionAdversary([1], mimic_a=2, mimic_b=7), config)
        messages = adversary.outgoing(1, 1, context_for(config, outgoing))
        assert messages[1] == "m2"
        assert messages[config.n] == "m7"

    def test_silent_with_no_correct_traffic(self, config):
        adversary = bound(CollusionAdversary([1]), config)
        assert adversary.outgoing(1, 1, context_for(config)) == {}

    def test_reads_broadcast_rows_as_their_plain_maps(self, config):
        uniform = {
            sender: broadcast(f"m{sender}", config) for sender in (2, 5, 7)
        }
        plain = {sender: dict(row) for sender, row in uniform.items()}
        adversary = bound(CollusionAdversary([1], mimic_a=2, mimic_b=7), config)
        assert adversary.outgoing(1, 1, context_for(config, uniform)) == (
            adversary.outgoing(1, 1, context_for(config, plain))
        )


class TestTwoFacedHalves:
    @pytest.mark.parametrize("make", [
        lambda: EquivocatingAdversary([1], "a", "b"),
        lambda: CollusionAdversary([1]),
        lambda: VoteSplitterAdversary([1]),
    ])
    def test_split_once_per_binding(self, make):
        adversary = make()
        bound(adversary, SystemConfig(n=7, t=2))
        assert adversary._halves == ([1, 2, 3], [4, 5, 6, 7])
        bound(adversary, SystemConfig(n=4, t=1))
        assert adversary._halves == ([1, 2], [3, 4])

    def test_equivocator_sends_each_half_its_value(self, config):
        adversary = bound(EquivocatingAdversary([1], "a", "b"), config)
        messages = adversary.outgoing(1, 1, context_for(config))
        assert list(messages.items()) == (
            [(p, "a") for p in (1, 2, 3)] + [(p, "b") for p in (4, 5, 6, 7)]
        )


def test_every_gallery_annotation_resolves():
    """``typing.get_type_hints`` reads each method the gallery defines
    (a tuple of types is no annotation and made it raise)."""
    for cls in vars(byzantine).values():
        if isinstance(cls, type) and cls.__module__ == byzantine.__name__:
            for function in vars(cls).values():
                if inspect.isfunction(function):
                    typing.get_type_hints(function)


class TestStrategyTable:
    def test_per_processor_strategies(self, config):
        table = StrategyTable(
            {
                1: SilentAdversary([]),
                2: EquivocatingAdversary([], "a", "b"),
            }
        )
        bound(table, config)
        assert table.outgoing(1, 1, context_for(config)) == {}
        assert set(table.outgoing(1, 2, context_for(config)).values()) == {"a", "b"}

    def test_faulty_ids_union(self, config):
        table = StrategyTable({1: SilentAdversary([]), 2: SilentAdversary([])})
        assert table.faulty_ids == frozenset({1, 2})


class TestRoundContext:
    def test_sample_correct_message(self, config):
        outgoing = {3: {1: "hello"}}
        context = context_for(config, outgoing)
        assert context.sample_correct_message(1) == "hello"
        assert context.sample_correct_message(2) is BOTTOM

    def test_correct_message_lookup(self, config):
        outgoing = {3: {1: "hello"}}
        context = context_for(config, outgoing)
        assert context.correct_message(3, 1) == "hello"
        assert context.correct_message(3, 2) is BOTTOM
        assert context.correct_message(9, 1) is BOTTOM
