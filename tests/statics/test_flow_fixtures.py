"""Protoflow over the seeded non-canonical fixture tree.

The fixture module under ``fixtures/flowtree/agreement`` deliberately
violates the TAINT rule family; these tests pin that every TAINT rule
fires where intended and nowhere else.
"""

import pathlib

import pytest

from repro.statics.flow.passes import analyze_index
from repro.statics.model import ProjectIndex

FIXTURE_ROOT = pathlib.Path(__file__).parent / "fixtures" / "flowtree"


@pytest.fixture(scope="module")
def analysis():
    return analyze_index(ProjectIndex(FIXTURE_ROOT))


def _findings(analysis, rule):
    return [f for f in analysis.findings if f.rule == rule]


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
    assert rules == ["TAINT001", "TAINT002", "TAINT003"]
    assert len(analysis.findings) == 3


def test_fixture_paths_are_posix_relative(analysis):
    for finding in analysis.findings:
        assert finding.path.startswith("flowtree/agreement/")
        assert "\\" not in finding.path
