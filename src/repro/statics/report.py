"""Text, JSON, and SARIF rendering of lint results."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List

from repro.statics.rules import RULES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.statics.findings import Finding
    from repro.statics.runner import LintResult

#: Bumped whenever the JSON schema changes shape; consumers should
#: reject versions they do not know.  Version 3 dropped the baseline's
#: ``suppressed``, ``unused_suppressions`` and ``stale_suppressions``
#: keys: a report is its findings.
JSON_SCHEMA_VERSION = 3

#: The SARIF spec version the ``sarif`` format emits.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: "LintResult") -> str:
    """Human-readable report: one ``path:line:col rule message`` per line."""
    lines = []
    for finding in result.findings:
        title = RULES[finding.rule].title if finding.rule in RULES else ""
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} [{title}] {finding.message} "
            f"(in {finding.symbol})"
        )
    count = len(result.findings)
    if count:
        lines.append(f"{count} finding{'s' if count != 1 else ''}")
    else:
        lines.append("clean")
    return "\n".join(lines)


def render_json(result: "LintResult") -> str:
    """Machine-readable report — see ``docs/statics.md`` for the schema."""
    return json.dumps(
        {
            "version": JSON_SCHEMA_VERSION,
            "findings": [finding.to_json() for finding in result.findings],
        },
        indent=2,
    )


def _sarif_result(finding: "Finding") -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": f"{finding.message} (in {finding.symbol})"},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def render_sarif(result: "LintResult") -> str:
    """SARIF 2.1.0 report, for code-scanning upload and CI artifacts."""
    rules: List[Dict[str, Any]] = [
        {
            "id": rule.id,
            "name": rule.title,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in sorted(RULES.values(), key=lambda rule: rule.id)
    ]
    results = [_sarif_result(finding) for finding in result.findings]
    return json.dumps(
        {
            "$schema": SARIF_SCHEMA,
            "version": SARIF_VERSION,
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "protolint",
                            "informationUri": (
                                "https://example.invalid/docs/statics.md"
                            ),
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        },
        indent=2,
    )
