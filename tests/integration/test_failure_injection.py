"""Failure injection: protocol-aware attacks on the compact protocol.

These adversaries speak Protocol 3's wire format and target its
specific mechanisms — stale cores, forged-but-expandable index arrays,
spliced payloads, avalanche-level equivocation.  Agreement, validity,
the step-5 invariant, OUT-table consistency, and simulation fidelity
must all survive.
"""

import pytest

from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.core.simulation import check_fullinfo_consistency
from repro.types import is_bottom

from tests.adversary.compact_attacks import (
    AvalancheEquivocator,
    ForgedIndexAdversary,
    SpliceAdversary,
    StaleCoreAdversary,
)
from tests.conftest import assert_agreement_and_validity
from tests.obs.test_instrumented_runs import RevotingAdversary

ATTACKS = [
    StaleCoreAdversary,
    ForgedIndexAdversary,
    SpliceAdversary,
    AvalancheEquivocator,
]


@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("k", [1, 2])
class TestCompactSurvivesTargetedAttacks:
    def test_agreement_and_validity(self, config7, attack, k):
        for pattern in range(2):
            inputs = {p: (p + pattern) % 2 for p in config7.process_ids}
            result = run_compact_byzantine_agreement(
                config7,
                inputs,
                value_alphabet=[0, 1],
                k=k,
                adversary=attack([3, 6]),
                seed=pattern,
            )
            assert_agreement_and_validity(result, inputs)

    def test_invariant_and_out_consistency(self, config7, attack, k):
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_compact_byzantine_agreement(
            config7,
            inputs,
            value_alphabet=[0, 1],
            k=k,
            adversary=attack([1, 4]),
        )
        merged = {}
        for process in result.processes.values():
            # step-5 invariant: the core is always expandable.
            assert not is_bottom(process.full_state())
            tables = process.expansion.out_tables()
            for boundary in (2, 3, 4, 5):
                for subject, value in tables.get(boundary, {}).items():
                    key = (boundary, subject)
                    assert merged.setdefault(key, value) == value


def check_theorem_9(result, inputs, n):
    """The existential Theorem 9 check on a traced ``expose_full_state``
    run, and its correct processors' OUT tables in every round agreed."""
    correct = sorted(result.processes)
    full_states = {p: [inputs[p]] for p in correct}
    seen = {p: 0 for p in correct}
    merged = {}
    for round_number in result.trace.rounds:
        for process_id in correct:
            snapshot = result.trace.snapshot(round_number, process_id)
            if not snapshot:
                continue
            if (
                "full_state" in snapshot
                and snapshot["simul"] == seen[process_id] + 1
            ):
                full_states[process_id].append(snapshot["full_state"])
                seen[process_id] += 1
            for boundary, table in snapshot.get("out", {}).items():
                for subject, value in table.items():
                    key = (boundary, subject)
                    assert merged.setdefault(key, value) == value
    check_fullinfo_consistency(
        full_states, correct, inputs, n, value_alphabet=[0, 1]
    )
    return merged


@pytest.mark.parametrize("attack", ATTACKS)
def test_simulation_fidelity_under_targeted_attacks(config4, attack):
    """The existential Theorem 9 check passes under every attack."""
    inputs = {p: p % 2 for p in config4.process_ids}
    result = run_compact_byzantine_agreement(
        config4,
        inputs,
        value_alphabet=[0, 1],
        k=2,
        adversary=attack([2]),
        record_trace=True,
        expose_full_state=True,
    )
    check_theorem_9(result, inputs, config4.n)


@pytest.mark.parametrize(
    "attack, views", [(RevotingAdversary, 5), (AvalancheEquivocator, 1)]
)
@pytest.mark.parametrize("k", [1, 2])
def test_simulation_fidelity_under_divergent_views(config7, attack, views, k):
    """Correct processors at the same batch states share one expansion
    view; the revoting sender splits those states, and with them the
    views, where the avalanche equivocator splits neither.  Theorem 9
    must hold either way: the simulated states are some execution's,
    and every OUT entry any two processors hold agrees."""
    inputs = {p: p % 2 for p in config7.process_ids}
    result = run_compact_byzantine_agreement(
        config7,
        inputs,
        value_alphabet=[0, 1],
        k=k,
        adversary=attack([3, 6]),
        record_trace=True,
        expose_full_state=True,
    )
    assert check_theorem_9(result, inputs, config7.n)
    held = {id(process.expansion) for process in result.processes.values()}
    assert len(held) == views


class TestAttacksAgainstAvalancheStandalone:
    """The avalanche layer's conditions hold under vote equivocation
    routed through a full compact run (the OUT tables above) — here we
    additionally check the targeted equivocator cannot force a bogus
    decision round ordering."""

    def test_avalanche_equivocator_decision_rounds(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        result = run_compact_byzantine_agreement(
            config7,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=AvalancheEquivocator([2, 5]),
        )
        # Unanimity: everything must decide 1 at the same round.
        assert result.decided_values() == {1}
        assert len(set(result.decision_rounds.values())) == 1
