"""Tests for the Byzantine firing squad."""

import pytest

from repro.agreement.firing_squad import (
    FiringSquadProcess,
    fire_deadline,
    firing_squad_factory,
)
from repro.arrays.store import InternedArray
from repro.errors import ConfigurationError
from repro.obs.core import Observer, observing
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig, is_bottom

from tests.conftest import byzantine_adversaries, nested_tuple


def run_squad(config, inputs, adversary=None, rounds=12, seed=0):
    return run_protocol(
        firing_squad_factory(),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=rounds,
        seed=seed,
    )


class TestSimultaneity:
    def test_all_fire_in_same_round(self, config4):
        inputs = {1: 2, 2: 4, 3: 1, 4: BOTTOM}
        result = run_squad(config4, inputs, rounds=10)
        fire_rounds = set(result.decision_rounds.values())
        assert result.decided_values() == {"FIRE"}
        assert len(fire_rounds) == 1

    @pytest.mark.parametrize("faulty", [(1,), (4,)])
    def test_simultaneity_under_adversaries(self, config4, faulty):
        inputs = {p: (p if p % 2 else BOTTOM) for p in config4.process_ids}
        for adversary in byzantine_adversaries(list(faulty)):
            result = run_squad(config4, inputs, adversary=adversary, rounds=10)
            fired = {
                r
                for p, r in result.decision_rounds.items()
                if result.decisions[p] == "FIRE"
            }
            undecided = [
                p
                for p, d in result.decisions.items()
                if is_bottom(d)
            ]
            # Either everyone fired in one common round, or (if the GO
            # pattern never forced it) nobody did.
            assert len(fired) <= 1
            if fired:
                assert not undecided


class TestSafety:
    def test_no_go_no_fire(self, config4):
        inputs = {p: BOTTOM for p in config4.process_ids}
        result = run_squad(config4, inputs, rounds=8)
        assert all(is_bottom(d) for d in result.decisions.values())

    def test_no_correct_go_no_fire_despite_adversary(self, config7):
        """Faulty processors scream GO; correct ones never received
        one — nobody may fire."""
        inputs = {p: BOTTOM for p in config7.process_ids}
        inputs[6] = 1  # the faulty processor's nominal input
        inputs[7] = 1
        for adversary in byzantine_adversaries([6, 7], values=(0, 1)):
            result = run_squad(config7, inputs, adversary=adversary, rounds=8)
            assert all(is_bottom(d) for d in result.decisions.values())


class TestLiveness:
    def test_unanimous_go_fires_by_deadline(self, config4):
        go_round = 2
        inputs = {p: go_round for p in config4.process_ids}
        result = run_squad(config4, inputs, rounds=10)
        assert result.decided_values() == {"FIRE"}
        assert max(result.decision_rounds.values()) <= fire_deadline(
            go_round, config4.t
        )

    def test_staggered_gos_fire_by_last_deadline(self, config7):
        inputs = {p: p % 3 + 1 for p in config7.process_ids}  # GO by round 3
        for adversary in byzantine_adversaries([2, 5], values=(0, 1)):
            result = run_squad(config7, inputs, adversary=adversary, rounds=12)
            assert result.decided_values() == {"FIRE"}
            assert max(result.decision_rounds.values()) <= fire_deadline(
                3, config7.t
            )


class TestFailClosed:
    def test_payload_nested_past_the_recursion_limit_is_ignored(self, config4):
        """A Byzantine sender cannot crash a correct processor: the
        5000-deep view (and the 5000-deep non-dict payload) count as
        malformed and the three correct processors fire on time."""
        hostile = nested_tuple(config4.n)  # right width at every level
        squad = {p: FiringSquadProcess(p, config4, 1) for p in (1, 2, 3)}
        for round_number in (1, 2, 3):
            sent = {p: q.outgoing(round_number)[p] for p, q in squad.items()}
            junk = (
                hostile
                if round_number == 3
                else {start: hostile for start in sent[1]}
            )
            for process in squad.values():
                process.receive(round_number, {**sent, 4: junk})
        assert {p.decision for p in squad.values()} == {"FIRE"}
        assert {p.decision_round for p in squad.values()} == {
            fire_deadline(1, config4.t)
        }


class TestHousekeeping:
    def test_live_instances_bounded(self, config4):
        inputs = {p: BOTTOM for p in config4.process_ids}
        result = run_protocol(
            firing_squad_factory(),
            config4,
            inputs,
            run_full_rounds=10,
            record_trace=True,
        )
        for round_number in result.trace.rounds:
            for snapshot in result.trace.snapshots_in_round(
                round_number
            ).values():
                assert len(snapshot["live_instances"]) <= config4.t + 1

    def test_instances_run_on_the_interned_kernel(self, config4):
        """One path: views go through the shared receive gate (its
        verdict cache hits across instances and rounds) and every
        live state is a canonical node, never a plain tuple."""
        observer = Observer(spans=False)
        with observing(observer):
            result = run_squad(
                config4, {1: 1, 2: 3, 3: BOTTOM, 4: 2}, rounds=2
            )
        assert observer.registry.counter("fullinfo.legality.hit") > 0
        for process in result.processes.values():
            assert process._instances
            for state in process._instances.values():
                assert type(state) is InternedArray

    def test_input_validation(self, config4):
        with pytest.raises(ConfigurationError):
            FiringSquadProcess(1, config4, "go-now")
        with pytest.raises(ConfigurationError):
            FiringSquadProcess(1, config4, 0)

    def test_requires_byzantine_quorum(self):
        with pytest.raises(ConfigurationError):
            FiringSquadProcess(1, SystemConfig(n=6, t=2), 1)
