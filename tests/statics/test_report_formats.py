"""Rendering: SARIF 2.1.0, JSON schema version 3 and the text summary."""

import json

from repro.statics.findings import Finding
from repro.statics.report import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_sarif,
    render_text,
)
from repro.statics.rules import RULES
from repro.statics.runner import LintResult


def _finding(rule="DET004", path="repro/agreement/x.py", symbol="X.outgoing"):
    return Finding(
        path=path, line=7, col=4, rule=rule, symbol=symbol,
        message="iteration over a set literal: order depends on "
        "PYTHONHASHSEED; wrap in sorted(...)",
    )


def test_sarif_shape_and_schema():
    result = LintResult(
        findings=[_finding(), _finding(rule="DET001", symbol="<module>")]
    )
    sarif = json.loads(render_sarif(result))
    assert sarif["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in sarif["$schema"]
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "protolint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(RULES)
    assert rule_ids == ["DET001", "DET002", "DET003", "DET004", "DET005"]
    assert len(run["results"]) == 2


def test_sarif_result_fields():
    (live,) = json.loads(
        render_sarif(LintResult(findings=[_finding()]))
    )["runs"][0]["results"]
    assert live["ruleId"] == "DET004"
    assert "suppressions" not in live
    location = live["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/agreement/x.py"
    assert location["region"] == {"startLine": 7, "startColumn": 5}
    assert "X.outgoing" in live["message"]["text"]


def test_sarif_over_clean_result_is_valid_and_empty():
    sarif = json.loads(render_sarif(LintResult([])))
    assert sarif["runs"][0]["results"] == []


def test_json_and_text_reports_are_the_findings():
    clean = LintResult(findings=[])
    assert render_text(clean) == "clean"
    assert clean.exit_code == 0
    payload = json.loads(render_json(clean))
    assert JSON_SCHEMA_VERSION == 3
    assert payload == {"version": JSON_SCHEMA_VERSION, "findings": []}

    dirty = LintResult(findings=[_finding()])
    assert dirty.exit_code == 1
    assert render_text(dirty).endswith("\n1 finding")
    assert json.loads(render_json(dirty))["findings"] == [
        _finding().to_json()
    ]
