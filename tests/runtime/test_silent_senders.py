"""Silent senders: correct-but-quiet and crash-faulted processors.

The round loop prefills every receiver's incoming row with
:data:`BOTTOM` (one slot per processor id), so a sender that sends
*nothing* in a round — a correct processor whose ``outgoing`` is empty,
or a crashed processor — must surface as detectable BOTTOM entries, a
complete ``n``-entry row, under the lockstep engine and the
asynchronous reference alike.  The reference counts BOTTOM arrivals
toward round recovery (an omission is a detectable event in the
synchronous reduction), so silence must never stall round advancement
either.
"""

import dataclasses
import pickle

import pytest

from repro.adversary.crash import CrashAdversary
from repro.avalanche.protocol import avalanche_factory
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, SystemConfig, is_bottom

from tests.runtime.reference_async import schedule_for

BACKENDS = ("lockstep", "async", "async:5:3")


class _SometimesSilent(Process):
    """Broadcasts in odd rounds, stays completely silent in even ones,
    and records every incoming row for inspection."""

    __slots__ = ("seen",)

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.seen = []

    def outgoing(self, round_number):
        if round_number % 2 == 1:
            return broadcast(("beat", round_number), self.config)
        return {}

    def receive(self, round_number, incoming):
        self.seen.append((round_number, dict(incoming)))

    def snapshot(self):
        return {"decision": self.decision, "rows": len(self.seen)}


def _run_silent(config=None):
    config = config or SystemConfig(n=4, t=0)
    inputs = {process_id: 0 for process_id in config.process_ids}
    return run_protocol(
        lambda pid, cfg, value: _SometimesSilent(pid, cfg),
        config,
        inputs,
        run_full_rounds=4,
        seed=3,
    )


@pytest.mark.parametrize("schedule", BACKENDS, indirect=True)
def test_silent_round_delivers_full_bottom_rows(schedule):
    result = _run_silent()
    config = result.config
    for process in result.processes.values():
        assert [row[0] for row in process.seen] == [1, 2, 3, 4]
        for round_number, row in process.seen:
            # The prefilled row: every processor id present, in order.
            assert list(row) == list(config.process_ids)
            if round_number % 2 == 1:
                assert all(
                    row[sender] == ("beat", round_number)
                    for sender in config.process_ids
                )
            else:
                assert all(is_bottom(row[sender]) for sender in row)


def test_silent_rounds_identical_across_backends():
    rows = {}
    for spec in BACKENDS:
        with schedule_for(spec):
            rows[spec] = [
                (pid, process.seen)
                for pid, process in sorted(_run_silent().processes.items())
            ]
    assert rows["lockstep"] == rows["async"] == rows["async:5:3"]


def test_silent_rounds_cost_zero_bits():
    """An all-silent round creates no metric rows at all (the lazily
    bound recorder), under every schedule."""
    for spec in BACKENDS:
        with schedule_for(spec):
            metrics = _run_silent().metrics
        for silent_round in (2, 4):
            usage = metrics.round_usage(silent_round)
            assert (usage.messages, usage.bits) == (0, 0)
        assert metrics.total_non_null_messages == 2 * 16  # rounds 1 and 3
        assert metrics.total_bits > 0  # the beats themselves were metered


@pytest.mark.parametrize("schedule", BACKENDS, indirect=True)
def test_crash_faulted_sender_goes_bottom(schedule):
    """A crashed processor's post-crash silence arrives as BOTTOM and
    the execution still terminates and decides — on every schedule."""
    config = SystemConfig(n=7, t=2)
    inputs = {pid: pid % 2 for pid in config.process_ids}
    factory = avalanche_factory()
    result = run_protocol(
        factory,
        config,
        inputs,
        adversary=CrashAdversary({1: 2, 2: 1}, factory, cut_fraction=0.5),
        run_full_rounds=6,
        seed=5,
    )
    assert result.rounds == 6
    assert result.faulty_ids == frozenset({1, 2})


def test_crash_execution_identical_across_backends():
    config = SystemConfig(n=7, t=2)
    inputs = {pid: pid % 2 for pid in config.process_ids}

    def run(spec):
        factory = avalanche_factory()
        with schedule_for(spec):
            result = run_protocol(
                factory,
                config,
                inputs,
                adversary=CrashAdversary(
                    {1: 2, 2: 1}, factory, cut_fraction=0.5
                ),
                run_full_rounds=6,
                seed=5,
            )
        return pickle.dumps(dataclasses.replace(result, processes={}))

    reference = run("lockstep")
    assert run("async") == reference
    assert run("async:6:11") == reference


def test_bottom_broadcast_equals_empty_outgoing():
    """Explicitly broadcasting BOTTOM and sending nothing are the same
    execution — the fast path may not distinguish them."""

    class ExplicitBottom(_SometimesSilent):
        __slots__ = ()

        def outgoing(self, round_number):
            if round_number % 2 == 1:
                return broadcast(("beat", round_number), self.config)
            return broadcast(BOTTOM, self.config)

    config = SystemConfig(n=4, t=0)
    inputs = {pid: 0 for pid in config.process_ids}
    for spec in BACKENDS:
        with schedule_for(spec):
            implicit = _run_silent(config)
            explicit = run_protocol(
                lambda pid, cfg, value: ExplicitBottom(pid, cfg),
                config,
                inputs,
                run_full_rounds=4,
                seed=3,
            )
        assert [
            process.seen for _, process in sorted(implicit.processes.items())
        ] == [
            process.seen for _, process in sorted(explicit.processes.items())
        ]
        assert pickle.dumps(implicit.metrics) == pickle.dumps(
            explicit.metrics
        )
