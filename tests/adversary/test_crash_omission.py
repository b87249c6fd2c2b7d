"""Tests for the benign fault models (ghost-process semantics)."""

import pytest

from repro.adversary.crash import CrashAdversary
from repro.adversary.omission import OmissionAdversary
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.types import SystemConfig


class GossipProcess(Process):
    """Broadcasts everything it has seen; decides after 3 rounds."""

    def __init__(self, process_id, config, input_value):
        super().__init__(process_id, config)
        self.seen = {input_value}

    def outgoing(self, round_number):
        return broadcast(frozenset(self.seen), self.config)

    def receive(self, round_number, incoming):
        for message in incoming.values():
            if isinstance(message, frozenset):
                self.seen |= message
        if round_number >= 3:
            self.decide(min(self.seen), round_number)


def gossip_factory(process_id, config, input_value):
    return GossipProcess(process_id, config, input_value)


@pytest.fixture
def config():
    return SystemConfig(n=5, t=2)


@pytest.fixture
def inputs(config):
    return {process_id: process_id for process_id in config.process_ids}


class TestCrashAdversary:
    def test_behaves_correctly_before_crash(self, config, inputs):
        adversary = CrashAdversary({5: 3}, gossip_factory, cut_fraction=1.0)
        result = run_protocol(
            gossip_factory, config, inputs, adversary=adversary, max_rounds=4
        )
        # Processor 5 never actually deviates (crashes after round 3's
        # full broadcast), so everyone learns its input.
        assert all(decision == 1 for decision in result.decisions.values())
        assert all(5 in proc.seen for proc in result.processes.values())

    def test_silent_after_crash(self, config, inputs):
        adversary = CrashAdversary({5: 1}, gossip_factory, cut_fraction=0.0)
        result = run_protocol(
            gossip_factory, config, inputs, adversary=adversary, max_rounds=4
        )
        # A clean round-1 crash means nobody ever hears value 5.
        assert all(5 not in proc.seen for proc in result.processes.values())

    def test_partial_crash_round_reaches_prefix(self, config, inputs):
        adversary = CrashAdversary({5: 1}, gossip_factory, cut_fraction=0.5)
        result = run_protocol(
            gossip_factory, config, inputs, adversary=adversary, max_rounds=4
        )
        # Prefix recipients (ids 1, 2) got round 1; gossip then spreads
        # value 5 to everyone — the classic crash asymmetry resolved by
        # flooding.
        assert all(5 in proc.seen for proc in result.processes.values())

    def test_ghost_follows_protocol(self, config, inputs):
        adversary = CrashAdversary({5: 3}, gossip_factory, cut_fraction=1.0)
        run_protocol(
            gossip_factory, config, inputs, adversary=adversary, max_rounds=4
        )
        ghost = adversary.ghost(5)
        assert ghost is not None
        assert ghost.seen >= {1, 2, 3, 4, 5}

    def test_invalid_cut_fraction(self):
        with pytest.raises(ValueError):
            CrashAdversary({1: 1}, gossip_factory, cut_fraction=1.5)


class TestOmissionAdversary:
    def test_never_lies(self, config, inputs):
        adversary = OmissionAdversary([5], gossip_factory, drop_probability=0.5)
        result = run_protocol(
            gossip_factory,
            config,
            inputs,
            adversary=adversary,
            max_rounds=4,
            record_trace=True,
            seed=3,
        )
        ghost = adversary.ghost(5)
        for envelope in result.trace.messages_from(5):
            assert isinstance(envelope.payload, frozenset)
            assert envelope.payload <= ghost.seen

    def test_drop_probability_zero_is_correct_behaviour(self, config, inputs):
        adversary = OmissionAdversary([5], gossip_factory, drop_probability=0.0)
        result = run_protocol(
            gossip_factory, config, inputs, adversary=adversary, max_rounds=4
        )
        assert all(5 in proc.seen for proc in result.processes.values())

    def test_drop_probability_one_is_silence(self, config, inputs):
        adversary = OmissionAdversary([5], gossip_factory, drop_probability=1.0)
        result = run_protocol(
            gossip_factory, config, inputs, adversary=adversary, max_rounds=4
        )
        assert all(5 not in proc.seen for proc in result.processes.values())

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            OmissionAdversary([1], gossip_factory, drop_probability=-0.1)
