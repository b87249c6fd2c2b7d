"""The committed certificate catalog stays in sync with the analysis.

``tools/protoflow_certificates.json`` is a build artifact with a
pinned regeneration path (``repro lint --certificates``); this test
re-derives it from the tree + baseline and fails on any drift, so a
protocol edit that changes a verdict must re-commit the catalog.
"""

import json
import pathlib

import pytest

from repro.statics.baseline import Baseline
from repro.statics.flow.certificates import certify, render_certificates
from repro.statics.flow.passes import analyze_index
from repro.statics.model import ProjectIndex
from repro.statics.runner import default_package_root, find_default_baseline

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED = REPO_ROOT / "tools" / "protoflow_certificates.json"


def is_certified_canonical(entry):
    """Whether a certificate entry claims closed + sanitized + bounded.

    Both ``closed`` and ``waived`` count, because a waiver documents a
    deliberate, reviewed deviation, not an unknown one.
    """
    flow_ok = entry["flow"]["verdict"] in ("closed", "waived")
    taint_ok = entry["taint"]["verdict"] in ("sanitized", "waived")
    size_ok = entry["size"]["verdict"] != "open"
    return bool(flow_ok and taint_ok and size_ok)


@pytest.fixture(scope="module")
def regenerated():
    root = default_package_root()
    baseline_path = find_default_baseline(root)
    baseline = (
        Baseline.load(baseline_path)
        if baseline_path is not None
        else Baseline()
    )
    return certify(analyze_index(ProjectIndex(root)), baseline)


def test_committed_catalog_matches_regeneration(regenerated):
    committed = COMMITTED.read_text(encoding="utf-8")
    assert committed == render_certificates(regenerated), (
        "tools/protoflow_certificates.json is stale — regenerate with "
        "`repro lint --certificates tools/protoflow_certificates.json`"
    )


def test_every_catalog_protocol_is_certified_canonical(regenerated):
    open_protocols = [
        key
        for key, entry in regenerated["protocols"].items()
        if not is_certified_canonical(entry)
    ]
    assert open_protocols == []


def test_catalog_covers_the_full_protocol_set(regenerated):
    keys = set(regenerated["protocols"])
    assert len(keys) == 21
    for expected in (
        "repro/compact/lazy_decision.py::LazyCompactProcess",
        "repro/agreement/phase_king.py::PhaseKingProcess",
        "repro/agreement/dolev_strong.py::DolevStrongProcess",
        "repro/compact/protocol.py::CompactProcess",
        "repro/fullinfo/protocol.py::FullInformationProcess",
        "repro/avalanche/protocol.py::AvalancheProcess",
    ):
        assert expected in keys


def test_waivers_and_history_bounds_are_recorded_not_hidden(regenerated):
    protocols = regenerated["protocols"]
    dolev = protocols["repro/agreement/dolev_strong.py::DolevStrongProcess"]
    assert dolev["flow"]["verdict"] == "waived"
    assert dolev["flow"]["waived"]  # the outbox-swap drain
    assert dolev["size"]["verdict"] == "history"
    assert dolev["size"]["justified"] is True

    fullinfo = protocols["repro/fullinfo/protocol.py::FullInformationAutomaton"]
    assert fullinfo["taint"]["verdict"] == "waived"
    assert fullinfo["size"]["inferred"] == "history"

    king = protocols["repro/agreement/phase_king.py::PhaseKingProcess"]
    assert king["flow"]["verdict"] == "closed"
    assert king["taint"]["verdict"] == "sanitized"
    assert king["size"]["verdict"] == "bounded"
    assert "_as_bit" in king["taint"]["sanitizers"]


def test_is_certified_canonical_rejects_open_verdicts():
    entry = {
        "flow": {"verdict": "closed"},
        "taint": {"verdict": "open"},
        "size": {"verdict": "bounded"},
    }
    assert not is_certified_canonical(entry)
    entry["taint"]["verdict"] = "waived"
    assert is_certified_canonical(entry)
    entry["size"]["verdict"] = "open"
    assert not is_certified_canonical(entry)


def test_committed_catalog_is_canonical_json():
    committed = COMMITTED.read_text(encoding="utf-8")
    parsed = json.loads(committed)
    assert committed == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    assert parsed["version"] == 1
