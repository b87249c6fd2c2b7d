"""Per-protocol canonical-form certificates.

The closedness certificate is the artifact ROADMAP item 1 needs: the
asynchrony reduction (Damian/Dragoi/Widder, see PAPERS.md) applies
exactly to protocols whose rounds are communication-closed, and the
Alpturer-Ruj limited-information-exchange bounds need the per-round
size class.  ``certify`` folds the lint baseline into a protoflow
analysis (``certify_tree`` runs one first): a violation with a
justified suppression leaves the protocol ``waived`` (deliberately
non-canonical in a documented way), an unsuppressed violation leaves
it ``open``.

Certificate schema (version 1)::

    {
      "version": 1,
      "protocols": {
        "repro/agreement/phase_king.py::PhaseKingProcess": {
          "kind": "process",
          "structure": "lockstep",
          "flow":  {"verdict": "closed", "violations": [], "waived": []},
          "size":  {"inferred": "constant", "declared": "constant",
                     "justified": false, "verdict": "bounded"},
          "taint": {"verdict": "sanitized", "violations": [],
                     "waived": [], "sanitizers": ["_as_bit"]}
        }, ...
      }
    }

``flow.verdict`` is ``closed`` | ``waived`` | ``open``;
``taint.verdict`` is ``sanitized`` | ``waived`` | ``open``;
``size.verdict`` is ``bounded`` (declared >= inferred), ``declared``
(justified declaration below the inference), or ``history``.
Violation keys are finding suppression keys (``rule:path:symbol``),
so the certificate is stable across unrelated edits.

The shipped catalog's certificates are committed at
``tools/protoflow_certificates.json`` and pinned by
``tests/statics/test_certificates.py``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.statics.baseline import Baseline
from repro.statics.findings import Finding
from repro.statics.flow.lattice import SIZE_NAMES, size_name
from repro.statics.flow.passes import (
    FlowAnalysis,
    ProtocolReport,
    analyze_tree,
)

CERTIFICATE_VERSION = 1


def _split(
    findings: List[Finding], baseline: Baseline
) -> Tuple[List[str], List[str]]:
    """(open violation keys, waived violation keys), each sorted+deduped."""
    violations = set()
    waived = set()
    for finding in findings:
        if baseline.match(finding) is not None:
            waived.add(finding.suppression_key)
        else:
            violations.add(finding.suppression_key)
    return sorted(violations), sorted(waived)


def _verdict(violations: List[str], waived: List[str], ok: str) -> str:
    if violations:
        return "open"
    if waived:
        return "waived"
    return ok


def certificate_for(
    report: ProtocolReport, baseline: Baseline
) -> Dict[str, Any]:
    """The certificate entry for one protocol report."""
    flow_open, flow_waived = _split(report.flow_findings, baseline)
    taint_open, taint_waived = _split(report.taint_findings, baseline)
    com_open, com_waived = _split(report.com_findings, baseline)

    declared = report.declared
    declared_name: Optional[str] = (
        declared.bound if declared is not None else None
    )
    justified = bool(declared is not None and declared.justification)
    if com_open or declared_name is None or declared_name not in SIZE_NAMES:
        size_verdict = "open"
    elif declared_name == "history":
        size_verdict = "history"
    elif SIZE_NAMES[declared_name] >= report.inferred_bound:
        size_verdict = "bounded"
    else:
        size_verdict = "declared"

    return {
        "kind": report.kind,
        "structure": report.structure,
        "flow": {
            "verdict": _verdict(flow_open, flow_waived, "closed"),
            "violations": flow_open,
            "waived": flow_waived,
        },
        "size": {
            "inferred": size_name(report.inferred_bound),
            "declared": declared_name,
            "justified": justified,
            "verdict": size_verdict,
            "violations": com_open,
            "waived": com_waived,
        },
        "taint": {
            "verdict": _verdict(taint_open, taint_waived, "sanitized"),
            "violations": taint_open,
            "waived": taint_waived,
            "sanitizers": report.sanitizers_used,
        },
    }


def certify(analysis: FlowAnalysis, baseline: Baseline) -> Dict[str, Any]:
    """Certificates for every protocol an analysis reported on.

    ``repro lint --certificates`` passes the analysis its findings came
    from (``LintResult.flow``), so the tree is analysed once.
    """
    protocols: Dict[str, Any] = {}
    for report in analysis.reports:
        key = f"{report.cls.module.relative}::{report.cls.name}"
        protocols[key] = certificate_for(report, baseline)
    return {"version": CERTIFICATE_VERSION, "protocols": protocols}


def certify_tree(
    package_root: pathlib.Path, baseline: Optional[Baseline] = None
) -> Dict[str, Any]:
    """Certificates for every certified protocol under ``package_root``."""
    return certify(
        analyze_tree(package_root),
        baseline if baseline is not None else Baseline(),
    )


def render_certificates(certificates: Dict[str, Any]) -> str:
    """Canonical JSON serialization (stable across runs)."""
    return json.dumps(certificates, indent=2, sort_keys=True) + "\n"


def is_certified_canonical(entry: Dict[str, Any]) -> bool:
    """Whether a certificate entry claims closed + sanitized + bounded.

    The static/dynamic agreement test uses this predicate: a fuzz
    counterexample against a protocol whose certificate passes it
    means either the oracle or protoflow is wrong — both ``closed``
    and ``waived`` count, because a waiver documents a deliberate,
    reviewed deviation, not an unknown one.
    """
    flow_ok = entry["flow"]["verdict"] in ("closed", "waived")
    taint_ok = entry["taint"]["verdict"] in ("sanitized", "waived")
    size_ok = entry["size"]["verdict"] != "open"
    return bool(flow_ok and taint_ok and size_ok)
