"""Static-vs-dynamic closedness cross-check over the fuzz corpus.

Protoflow certifies each protocol *text* communication-closed (the
FLOW verdicts committed in ``tools/protoflow_certificates.json``);
the causal tracer certifies a particular *execution* closed
(:func:`repro.obs.trace.check_closedness`).  This module connects the
two: it replays every saved corpus case under an event log and
demands the dynamic verdict agree with the static one.

The agreement rule is one-sided, because static analysis is the
conservative side:

- static ``closed`` (or ``waived`` — a human accepted the protocol's
  round discipline) ⇒ the observed execution **must** be closed; any
  dynamic problem is a disagreement, and the corpus test treats it as
  a failure, not a warning;
- static ``open`` ⇒ unconstrained: a conservative analysis may reject
  text whose executions happen to be closed.

Lives in ``statics/`` (outside the protolint-scanned protocol
packages) because it drives live replays — it is a checker *harness*,
not protocol code.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Union

#: Default location of the committed certificate catalog.
DEFAULT_CERTIFICATES = pathlib.Path("tools/protoflow_certificates.json")


def load_certificates(
    path: Union[str, pathlib.Path] = DEFAULT_CERTIFICATES,
) -> Dict[str, Any]:
    """The ``protocols`` table of the committed certificate catalog."""
    data = json.loads(pathlib.Path(path).read_text())
    protocols = data.get("protocols")
    if not isinstance(protocols, dict):
        raise ValueError(f"{path}: no 'protocols' table")
    return protocols


def _static_verdicts(
    protocol: str, certificates: Dict[str, Any]
) -> Dict[str, str]:
    """Certificate-key -> FLOW verdict for one registered protocol.

    The keys are the spec's own ``certificates``: an unregistered name
    raises instead of vacuously agreeing.
    """
    from repro.fuzz.protocols import get_spec

    verdicts: Dict[str, str] = {}
    for key in get_spec(protocol).certificates:
        entry = certificates.get(key)
        flow = entry.get("flow") if isinstance(entry, dict) else None
        if isinstance(flow, dict):
            verdicts[key] = str(flow.get("verdict", "missing"))
        else:
            verdicts[key] = "missing"
    return verdicts


def check_case(case: Any, certificates: Dict[str, Any]) -> Dict[str, Any]:
    """Replay one corpus case under an event log and cross-check.

    Returns a JSON-ready verdict entry; ``agrees`` is ``False`` only
    when the static certificate promises closedness (``closed`` or
    ``waived``) and the observed execution violates it.
    """
    import repro.obs.core as _obs
    from repro.fuzz.campaign import replay_case
    from repro.obs.events import EventLog
    from repro.obs.trace import build_dags, check_closedness

    log = EventLog()
    with _obs.observing(_obs.Observer(events=log, spans=False)):
        outcome = replay_case(case)
    problems = check_closedness(log.records)
    dags = build_dags(log.records)
    dynamic = "closed" if not problems else "open"
    statics = _static_verdicts(case.protocol, certificates)
    promised = [
        key for key, verdict in statics.items()
        if verdict in ("closed", "waived")
    ]
    agrees = not (promised and problems)
    deliver_edges = sum(len(dag.deliver_edges()) for dag in dags)
    traced_bits = sum(
        sum(dag.round_bits().values()) for dag in dags
    )
    return {
        "case": case.filename(),
        "protocol": case.protocol,
        "static": statics,
        "dynamic": dynamic,
        "problems": problems,
        "agrees": agrees,
        "deliver_edges": deliver_edges,
        "traced_bits": traced_bits,
        "replay_violations": list(outcome.violations),
    }


def cross_check_corpus(
    corpus_dir: Union[str, pathlib.Path],
    certificates_path: Union[str, pathlib.Path] = DEFAULT_CERTIFICATES,
) -> Dict[str, Any]:
    """Cross-check every case in a corpus directory.

    ``ok`` is ``True`` only when every case agrees — the acceptance
    gate CI and ``tests/statics/test_dynamic_crosscheck.py`` enforce.
    """
    from repro.fuzz.case import load_corpus

    certificates = load_certificates(certificates_path)
    cases: List[Dict[str, Any]] = []
    for _path, case in load_corpus(pathlib.Path(corpus_dir)):
        cases.append(check_case(case, certificates))
    disagreements = [entry for entry in cases if not entry["agrees"]]
    return {
        "corpus": str(corpus_dir),
        "certificates": str(certificates_path),
        "cases": cases,
        "disagreements": [entry["case"] for entry in disagreements],
        "ok": not disagreements,
    }


def render_cross_check(report: Dict[str, Any]) -> str:
    """Human-readable form of :func:`cross_check_corpus`."""
    lines = [
        f"closedness cross-check — corpus {report['corpus']} vs "
        f"{report['certificates']}"
    ]
    for entry in report["cases"]:
        statics = ", ".join(
            f"{key.rsplit('::', 1)[-1]}={verdict}"
            for key, verdict in entry["static"].items()
        )
        lines.append(
            f"  {entry['case']}: dynamic {entry['dynamic']} "
            f"({entry['deliver_edges']} edges, "
            f"{entry['traced_bits']} bits) vs static [{statics}] — "
            + ("agrees" if entry["agrees"] else "DISAGREES")
        )
        for problem in entry["problems"]:
            lines.append(f"    {problem}")
    lines.append(
        f"{len(report['cases'])} case(s), "
        f"{len(report['disagreements'])} disagreement(s)"
    )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_CERTIFICATES",
    "check_case",
    "cross_check_corpus",
    "load_certificates",
    "render_cross_check",
]
