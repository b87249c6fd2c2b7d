"""Protoflow over the real protocol catalog (satellite of ISSUE 6).

These tests run the interprocedural analysis over the shipped tree
and pin what it concludes about representative protocols: the clean
canonical ones (turpin_coan, phase_king), the justified-waiver ones
(srikanth_toueg's drain idiom, dolev_strong's signature chains), and
the structural classification of the compact protocol.
"""

import pytest

from repro.statics.flow.lattice import Size
from repro.statics.flow.passes import analyze_index
from repro.statics.model import ProjectIndex
from repro.statics.runner import default_package_root


@pytest.fixture(scope="module")
def analysis():
    return analyze_index(ProjectIndex(default_package_root()))


@pytest.fixture(scope="module")
def by_name(analysis):
    return {report.cls.name: report for report in analysis.reports}


def test_catalog_coverage(by_name):
    expected = {
        "ApproximateAgreementAutomaton",
        "ApproximateProcess",
        "AutomatonProcess",
        "AuthCompactProcess",
        "AvalancheProcess",
        "BenOrProcess",
        "CompactProcess",
        "CrashCompactProcess",
        "CrusaderProcess",
        "DolevStrongProcess",
        "EarlyStoppingCrashProcess",
        "ExponentialAgreementAutomaton",
        "FiringSquadProcess",
        "FullInformationAutomaton",
        "FullInformationProcess",
        "LazyCompactProcess",
        "PhaseKingProcess",
        "PhaseQueenProcess",
        "STAgreementProcess",
        "TurpinCoanProcess",
        "WeakAgreementProcess",
    }
    assert set(by_name) == expected


def test_turpin_coan_is_fully_canonical(by_name):
    # Clean without any sanitizer declaration: every reception is
    # laundered through counting + threshold comparisons, which the
    # taint lattice recognizes as filtering on its own.
    report = by_name["TurpinCoanProcess"]
    assert report.findings == []
    assert report.inferred_bound is Size.CONSTANT
    assert report.structure == "lockstep"


def test_phase_king_and_queen_are_fully_canonical(by_name):
    for name in ("PhaseKingProcess", "PhaseQueenProcess"):
        report = by_name[name]
        assert report.findings == []
        assert "_as_bit" in report.sanitizers_used
        assert report.inferred_bound is Size.CONSTANT


def test_srikanth_toueg_drain_idiom_is_the_only_violation(by_name):
    report = by_name["STAgreementProcess"]
    assert report.inferred_bound is Size.CONSTANT
    assert "_well_formed" in report.sanitizers_used
    assert report.taint_findings == []
    keys = {f.suppression_key for f in report.flow_findings}
    assert keys == {
        "FLOW003:repro/agreement/srikanth_toueg.py:"
        "WitnessedBroadcast.outgoing_items"
    }


def test_dolev_strong_history_bound_is_declared_and_justified(by_name):
    report = by_name["DolevStrongProcess"]
    assert report.inferred_bound is Size.HISTORY
    assert report.declared is not None
    assert report.declared.bound == "history"
    assert report.declared.justification
    assert report.com_findings == []
    flow_rules = {f.rule for f in report.flow_findings}
    assert flow_rules == {"FLOW003"}  # the outbox-swap drain


def test_compact_protocol_is_blocked_structure(by_name):
    assert by_name["CompactProcess"].structure == "block(k)"
    assert by_name["FullInformationProcess"].structure == "lockstep"


def test_the_block_driver_certifies_every_fault_model_unwaived(by_name):
    """One loop, one legality filter: nothing on the shared send or
    decision path needs a baseline entry, and a drain that FLOW003
    sent to receive() still bounds the payload for COM."""
    for name in ("CompactProcess", "LazyCompactProcess",
                 "CrashCompactProcess", "AuthCompactProcess"):
        report = by_name[name]
        assert report.structure == "block(k)"
        assert report.findings == []
    for name in ("CrashCompactProcess", "AuthCompactProcess"):
        assert "_usable" in by_name[name].sanitizers_used
    assert by_name["CrashCompactProcess"].inferred_bound is Size.LINEAR


def test_full_information_baseline_is_flagged_not_silently_passed(by_name):
    automaton = by_name["FullInformationAutomaton"]
    assert automaton.inferred_bound is Size.HISTORY
    rules = {f.rule for f in automaton.taint_findings}
    assert "TAINT002" in rules  # Protocol 1 relays state by definition


def test_every_certified_protocol_declares_a_bound(analysis):
    undeclared = [
        report.cls.name
        for report in analysis.reports
        if report.declared is None
    ]
    assert undeclared == []
