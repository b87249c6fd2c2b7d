"""Baseline path normalization and stale-entry tolerance (satellite 2)."""

import json

import pytest

from repro.statics.baseline import Baseline, normalize_path
from repro.statics.findings import Finding


def _write(tmp_path, suppressions):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps({"version": 1, "suppressions": suppressions})
    )
    return path


def _entry(**overrides):
    entry = {
        "rule": "TAINT002",
        "path": "repro/agreement/x.py",
        "symbol": "X.outgoing",
        "justification": "relay of a signed value, reviewed",
    }
    entry.update(overrides)
    return entry


def test_normalize_path_forms():
    assert normalize_path("repro/agreement/x.py") == "repro/agreement/x.py"
    assert normalize_path("repro\\agreement\\x.py") == "repro/agreement/x.py"
    assert normalize_path("./repro/agreement/x.py") == "repro/agreement/x.py"
    assert normalize_path("src/repro/agreement/x.py") == (
        "repro/agreement/x.py"
    )
    assert normalize_path(".\\src\\repro\\x.py") == "repro/x.py"
    # Only the repo-root src/repro prefix is rewritten — an unrelated
    # src/ directory is someone's package name, not our layout.
    assert normalize_path("src/other/x.py") == "src/other/x.py"


@pytest.mark.parametrize(
    "written",
    [
        "repro/agreement/x.py",
        "src/repro/agreement/x.py",
        "./repro/agreement/x.py",
        "repro\\agreement\\x.py",
    ],
)
def test_denormalized_baseline_paths_still_match(tmp_path, written):
    baseline = Baseline.load(_write(tmp_path, [_entry(path=written)]))
    finding = Finding(
        path="repro/agreement/x.py", line=1, col=0,
        rule="TAINT002", symbol="X.outgoing", message="m",
    )
    assert baseline.match(finding) is not None
    assert baseline.unused() == []


def test_unknown_rule_id_is_stale_not_fatal(tmp_path):
    path = _write(
        tmp_path,
        [_entry(), _entry(rule="NOPE999", symbol="X.receive")],
    )
    baseline = Baseline.load(path)
    assert len(baseline.stale) == 1
    assert "NOPE999" in baseline.stale[0]
    assert "stale entry ignored" in baseline.stale[0]
    # The valid entry still works.
    finding = Finding(
        path="repro/agreement/x.py", line=1, col=0,
        rule="TAINT002", symbol="X.outgoing", message="m",
    )
    assert baseline.match(finding) is not None


def test_missing_justification_is_still_a_hard_error(tmp_path):
    path = _write(tmp_path, [_entry(justification="  ")])
    with pytest.raises(ValueError, match="no\\s+justification"):
        Baseline.load(path)


def test_unsupported_version_is_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "suppressions": []}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)
