"""Protoflow over the real protocol catalog (satellite of ISSUE 6).

These tests run the interprocedural analysis over the shipped tree
and pin what it concludes about representative protocols: the clean
canonical ones (turpin_coan, phase_king, srikanth_toueg) and the block
driver every compact fault model shares.  What a protocol sends is not
guessed here: every fuzzed run is held to its spec's message budget
(``tests/fuzz/test_budget.py``).
"""

import pytest

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


def test_phase_king_and_queen_are_fully_canonical(by_name):
    for name in ("PhaseKingProcess", "PhaseQueenProcess"):
        report = by_name[name]
        assert report.findings == []
        assert "_as_bit" in report.sanitizers_used


def test_srikanth_toueg_drain_idiom_is_sanitized_and_constant(by_name):
    report = by_name["STAgreementProcess"]
    assert "_well_formed" in report.sanitizers_used
    assert report.findings == []


def test_the_block_driver_certifies_every_fault_model_unwaived(by_name):
    """One loop, one legality filter: nothing on the shared send or
    decision path needs a baseline entry."""
    for name in ("CompactProcess", "CrashCompactProcess",
                 "AuthCompactProcess"):
        assert by_name[name].findings == []
    for name in ("CrashCompactProcess", "AuthCompactProcess"):
        assert "_usable" in by_name[name].sanitizers_used


def test_full_information_baseline_is_flagged_not_silently_passed(by_name):
    automaton = by_name["FullInformationAutomaton"]
    rules = {f.rule for f in automaton.taint_findings}
    assert "TAINT002" in rules  # Protocol 1 relays state by definition
