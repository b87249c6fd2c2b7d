"""Lemma 7, tested directly across processors and rounds.

    "For all b > 0 and for all correct processors p and q, if
     BLOCK(r) = b and PHASE(r) != k + 2 then phi_{b,r+1,p} is an
     extension of phi_{b,r,q}."

Expansion functions are determined by the OUT tables, so the extension
relation reduces to table containment with equal values: everything
``q`` has decided by round ``r``, ``p`` must have decided (identically)
by round ``r + 1``.  We check it over traced adversarial executions —
including the avalanche-equivocating attack built to stress exactly
this property.
"""

import pytest

from repro.adversary import (
    CollusionAdversary,
    EquivocatingAdversary,
    SilentAdversary,
)
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement

from tests.adversary.compact_attacks import AvalancheEquivocator

ADVERSARIES = [
    SilentAdversary,
    lambda f: EquivocatingAdversary(f, 0, 1),
    CollusionAdversary,
    AvalancheEquivocator,
]


def collect_out_snapshots(result):
    """{round: {pid: {boundary: {subject: value}}}} from the trace."""
    tables = {}
    for round_number in result.trace.rounds:
        per_process = {}
        for process_id in result.processes:
            snapshot = result.trace.snapshot(round_number, process_id)
            if snapshot and "out" in snapshot:
                per_process[process_id] = snapshot["out"]
        if per_process:
            tables[round_number] = per_process
    return tables


def assert_extension(earlier, later, context):
    """Every (boundary, subject) in ``earlier`` appears, with the same
    value, in ``later``."""
    for boundary, table in earlier.items():
        later_table = later.get(boundary, {})
        for subject, value in table.items():
            assert subject in later_table, (context, boundary, subject)
            assert later_table[subject] == value, (context, boundary, subject)


@pytest.mark.parametrize("maker", ADVERSARIES)
@pytest.mark.parametrize("k", [1, 2])
def test_lemma7_extension_across_processors(config4, maker, k):
    inputs = {p: p % 2 for p in config4.process_ids}
    result = run_compact_byzantine_agreement(
        config4,
        inputs,
        value_alphabet=[0, 1],
        k=k,
        adversary=maker([2]),
        record_trace=True,
        expose_full_state=True,
    )
    tables = collect_out_snapshots(result)
    rounds = sorted(tables)
    schedule = result.processes[1].schedule
    for round_number in rounds:
        if round_number + 1 not in tables:
            continue
        # The paper's precondition excludes only phase(r) = k + 2,
        # where a fresh avalanche batch may deliver round-1 decisions
        # to some processors a round before others.
        if schedule.phase(round_number) == schedule.k + 2:
            continue
        for q, q_tables in tables[round_number].items():
            for p, p_tables in tables[round_number + 1].items():
                assert_extension(
                    q_tables,
                    p_tables,
                    context=(round_number, q, p),
                )


def test_lemma7_same_round_values_agree(config7):
    """A corollary used everywhere: at any single round, two correct
    processors' tables never disagree on a decided slot (they may
    differ in which slots are decided — that's the one-round lag the
    extension property spans)."""
    inputs = {p: p % 2 for p in config7.process_ids}
    result = run_compact_byzantine_agreement(
        config7,
        inputs,
        value_alphabet=[0, 1],
        k=1,
        adversary=AvalancheEquivocator([3, 6]),
        record_trace=True,
        expose_full_state=True,
    )
    for round_number, per_process in collect_out_snapshots(result).items():
        merged = {}
        for tables in per_process.values():
            for boundary, table in tables.items():
                for subject, value in table.items():
                    key = (boundary, subject)
                    assert merged.setdefault(key, value) == value, (
                        round_number,
                        key,
                    )
