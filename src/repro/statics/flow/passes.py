"""Orchestration of the TAINT pass over a tree.

``analyze_index`` reads the project index once, then produces one
:class:`ProtocolReport` per certified class (every concrete ``Process``
subclass and every ``AutomatonProtocol`` implementation in the flow
packages) plus the declaration-validation findings for each module.
:attr:`FlowAnalysis.findings` flattens that into the finding list
``repro lint`` merges with the other passes.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.statics.findings import Finding
from repro.statics.flow.engine import (
    SANITIZER_DECLARATION,
    Instance,
    TaintInterpreter,
    TaintReport,
)
from repro.statics.flow.lattice import Taint
from repro.statics.flow.rules import TAINT001, TAINT002, TAINT003
from repro.statics.model import ClassInfo, ModuleInfo, ProjectIndex
from repro.statics.rules import Rule

_FIXPOINT_LIMIT = 8


@dataclasses.dataclass
class ProtocolReport:
    """Everything the taint pass concluded about one protocol class."""

    cls: ClassInfo
    taint_findings: List[Finding]
    sanitizers_used: List[str]

    @property
    def findings(self) -> List[Finding]:
        return self.taint_findings


@dataclasses.dataclass
class FlowAnalysis:
    """The whole-tree result: per-protocol reports + module findings."""

    reports: List[ProtocolReport]
    module_findings: List[Finding]

    @property
    def findings(self) -> List[Finding]:
        out = set(self.module_findings)
        # Deduped: an inherited method (e.g. an automaton subclassing
        # FullInformationAutomaton) reports at the ancestor's location
        # from every subclass's report.
        for report in self.reports:
            out.update(report.findings)
        return sorted(out)


def analyze_index(index: ProjectIndex) -> FlowAnalysis:
    """Run protoflow over an already indexed tree."""
    certified = index.certified()
    reports = [_analyze_protocol(index, info) for info in certified]
    module_findings: List[Finding] = []
    for module in index.linted:
        module_findings.extend(_validate_declarations(module))
    return FlowAnalysis(reports=reports, module_findings=module_findings)


# -- per-protocol analysis ---------------------------------------------------


def _analyze_protocol(index: ProjectIndex, info: ClassInfo) -> ProtocolReport:
    if index.kind_of(info) == "process":
        taint = _taint_process(index, info)
    else:
        taint = _taint_automaton(index, info)
    return ProtocolReport(
        cls=info,
        taint_findings=sorted(set(taint.findings)),
        sanitizers_used=sorted(taint.sanitizers_used),
    )


_RELAYED = (
    "outgoing payload carries a value derived from receive() that never "
    "passed a recognized sanitizer — a faulty sender's bytes would be "
    "relayed verbatim"
)
_DECIDED = (
    "gamma_p returns a value derived from the message tuple that never "
    "passed a recognized sanitizer (majority/threshold/legality filter)"
)


def _taint_process(index: ProjectIndex, info: ClassInfo) -> TaintReport:
    warm = TaintInterpreter(index, reporting=False)
    inst = warm.instantiate(info)
    receive_args = [Taint.CLEAN, Taint.RAW]
    for _ in range(_FIXPOINT_LIMIT):
        before = inst.snapshot()
        warm.run_method(inst, "receive", receive_args)
        if inst.snapshot() == before:
            break
    reporter = TaintInterpreter(index, reporting=True)
    reporter.run_method(inst, "receive", receive_args)
    _check_sink(
        reporter, index, inst, "outgoing", [Taint.CLEAN], TAINT002, _RELAYED
    )
    reporter.report.sanitizers_used |= warm.report.sanitizers_used
    return reporter.report


def _taint_automaton(index: ProjectIndex, info: ClassInfo) -> TaintReport:
    warm = TaintInterpreter(index, reporting=False)
    inst = warm.instantiate(info)
    state_taint, _ = warm.run_method(
        inst, "transition", [Taint.CLEAN, Taint.RAW]
    )
    reporter = TaintInterpreter(index, reporting=True)
    reporter.run_method(inst, "transition", [Taint.CLEAN, Taint.RAW])
    _check_sink(
        reporter, index, inst, "message",
        [Taint.CLEAN, Taint.CLEAN, state_taint], TAINT002, _RELAYED,
    )
    _check_sink(
        reporter, index, inst, "decision",
        [Taint.CLEAN, state_taint], TAINT001, _DECIDED,
    )
    reporter.report.sanitizers_used |= warm.report.sanitizers_used
    return reporter.report


def _check_sink(
    reporter: TaintInterpreter,
    index: ProjectIndex,
    inst: Instance,
    method_name: str,
    args: List[Taint],
    rule_obj: Rule,
    message: str,
) -> None:
    """Flag every return site of ``inst.method_name(*args)`` left ``RAW``."""
    _, sites = reporter.run_method(inst, method_name, args)
    found = index.find_method(inst.cls, method_name)
    if found is None:
        return
    owner, _ = found
    for node, taint in sites:
        if taint is Taint.RAW:
            reporter.report.findings.append(
                Finding.at(
                    rule_obj.id,
                    owner.module.relative,
                    node,
                    f"{owner.name}.{method_name}",
                    message,
                )
            )


# -- declaration validation --------------------------------------------------


def _validate_declarations(module: ModuleInfo) -> List[Finding]:
    findings: List[Finding] = []

    def add(rule_obj: Rule, line: int, message: str) -> None:
        findings.append(
            Finding(
                path=module.relative,
                line=line,
                col=0,
                rule=rule_obj.id,
                symbol="<module>",
                message=message,
            )
        )

    declaration = module.declaration(SANITIZER_DECLARATION)
    for note in declaration.malformed:
        if note.kind == "value":
            message = (
                f"TAINT_SANITIZERS entry {note.key!r} has no justification; "
                "state why its output is safe against Byzantine inputs"
            )
        elif note.kind == "key":
            message = "malformed TAINT_SANITIZERS declaration: non-string key"
        else:
            message = (
                "malformed TAINT_SANITIZERS declaration: TAINT_SANITIZERS "
                "must be a dict literal"
            )
        add(TAINT003, note.node.lineno, message)

    defined = set(module.functions) | set(module.imports)
    for cls in module.classes.values():
        defined.update(cls.methods)
        defined.update(f"{cls.name}.{name}" for name in cls.methods)
    for key, entry in sorted(declaration.entries.items()):
        if key not in defined:
            add(
                TAINT003,
                entry.line,
                f"TAINT_SANITIZERS names {key!r}, which this module does "
                "not define — dead entries would silently launder "
                "adversarial data",
            )
    return findings
