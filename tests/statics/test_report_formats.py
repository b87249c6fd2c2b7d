"""Rendering: SARIF 2.1.0 output and stale-baseline warnings."""

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


def _finding(rule="TAINT002", path="repro/agreement/x.py", symbol="X.outgoing"):
    return Finding(
        path=path, line=7, col=4, rule=rule, symbol=symbol,
        message="unsanitized adversarial value in an outgoing payload",
    )


def test_sarif_shape_and_schema():
    result = LintResult(
        findings=[_finding()],
        suppressed=[_finding(rule="TAINT002", symbol="Y.outgoing")],
        unused_suppressions=[],
    )
    sarif = json.loads(render_sarif(result))
    assert sarif["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in sarif["$schema"]
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "protolint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(RULES)
    assert {"DET001", "TAINT001", "TAINT002"} <= set(rule_ids)
    assert len(run["results"]) == 2


def test_sarif_result_fields_and_suppressions():
    result = LintResult(
        findings=[_finding()],
        suppressed=[_finding(rule="TAINT002", symbol="Y.outgoing")],
        unused_suppressions=[],
    )
    live, waived = json.loads(render_sarif(result))["runs"][0]["results"]
    assert live["ruleId"] == "TAINT002"
    assert "suppressions" not in live
    location = live["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/agreement/x.py"
    assert location["region"] == {"startLine": 7, "startColumn": 5}
    assert "X.outgoing" in live["message"]["text"]
    assert waived["suppressions"] == [{"kind": "external"}]


def test_sarif_over_clean_result_is_valid_and_empty():
    sarif = json.loads(render_sarif(LintResult([], [], [])))
    assert sarif["runs"][0]["results"] == []


def test_stale_suppressions_render_as_warnings():
    result = LintResult(
        findings=[],
        suppressed=[],
        unused_suppressions=[],
        stale_suppressions=["OLD001:repro/x.py:X: unknown rule id 'OLD001'"],
    )
    text = render_text(result)
    assert "warning: stale baseline entry OLD001:repro/x.py:X" in text
    assert text.endswith("clean (0 suppressed by baseline)")
    assert result.exit_code == 0  # stale entries warn, never fail

    payload = json.loads(render_json(result))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert JSON_SCHEMA_VERSION == 2
    assert payload["stale_suppressions"] == [
        "OLD001:repro/x.py:X: unknown rule id 'OLD001'"
    ]
