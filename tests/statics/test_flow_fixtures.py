"""Protoflow over the seeded non-canonical fixture tree.

Each fixture module under ``fixtures/flowtree/agreement`` deliberately
violates exactly one rule family; these tests pin that every COM and
TAINT rule fires where intended and nowhere else.
"""

import pathlib

import pytest

from repro.statics.flow.lattice import Size
from repro.statics.flow.passes import analyze_index
from repro.statics.model import ProjectIndex

FIXTURE_ROOT = pathlib.Path(__file__).parent / "fixtures" / "flowtree"


@pytest.fixture(scope="module")
def analysis():
    return analyze_index(ProjectIndex(FIXTURE_ROOT))


def _findings(analysis, rule):
    return [f for f in analysis.findings if f.rule == rule]


def test_com_fixture_flags_undeclared_and_underdeclared(analysis):
    com002 = _findings(analysis, "COM002")
    assert [f.symbol for f in com002] == ["ChattyProcess"]
    assert "size interpreter infers" in com002[0].message
    assert [f.symbol for f in _findings(analysis, "COM003")] == [
        "UndeclaredProcess"
    ]


def test_com_fixture_infers_history_for_accumulating_payload(analysis):
    by_name = {r.cls.name: r for r in analysis.reports}
    assert by_name["ChattyProcess"].inferred_bound is Size.HISTORY
    assert by_name["UndeclaredProcess"].inferred_bound is Size.CONSTANT


def test_taint_fixture_flags_decision_payload_and_dead_sanitizer(analysis):
    assert [f.symbol for f in _findings(analysis, "TAINT001")] == [
        "GullibleProcess.receive"
    ]
    assert [f.symbol for f in _findings(analysis, "TAINT002")] == [
        "GullibleProcess.outgoing"
    ]
    taint003 = _findings(analysis, "TAINT003")
    assert len(taint003) == 1
    assert "_missing_check" in taint003[0].message


def test_fixture_tree_has_no_unexpected_findings(analysis):
    rules = sorted({f.rule for f in analysis.findings})
    assert rules == [
        "COM002",
        "COM003",
        "TAINT001",
        "TAINT002",
        "TAINT003",
    ]
    assert len(analysis.findings) == 5


def test_fixture_paths_are_posix_relative(analysis):
    for finding in analysis.findings:
        assert finding.path.startswith("flowtree/agreement/")
        assert "\\" not in finding.path
