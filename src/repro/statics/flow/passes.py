"""Orchestration of the COM / TAINT passes over a tree.

``analyze_index`` reads the project index once, then produces one
:class:`ProtocolReport` per certified class (every concrete ``Process``
subclass and every ``AutomatonProtocol`` implementation in the flow
packages) plus the declaration-validation findings for each module.
:attr:`FlowAnalysis.findings` flattens that into the finding list
``repro lint`` merges with the other passes.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set

from repro.statics.findings import Finding
from repro.statics.flow.engine import (
    SANITIZER_DECLARATION,
    Instance,
    TaintInterpreter,
    TaintReport,
)
from repro.statics.flow.lattice import SIZE_NAMES, Size, Taint, size_name
from repro.statics.flow.rules import (
    COM001,
    COM002,
    COM003,
    TAINT001,
    TAINT002,
    TAINT003,
)
from repro.statics.flow.sizes import (
    SizeSummary,
    analyze_automaton,
    analyze_process,
)
from repro.statics.model import ClassInfo, Entry, ModuleInfo, ProjectIndex
from repro.statics.rules import Rule

_FIXPOINT_LIMIT = 8

#: The module-level declaration the COM pass trusts.
BOUNDS_DECLARATION = "MESSAGE_BOUNDS"


@dataclasses.dataclass
class ProtocolReport:
    """Everything the two passes concluded about one protocol class."""

    cls: ClassInfo
    taint_findings: List[Finding]
    com_findings: List[Finding]
    sanitizers_used: List[str]
    inferred_bound: Size
    declared: Optional[Entry]

    @property
    def findings(self) -> List[Finding]:
        return sorted(self.taint_findings + self.com_findings)


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
        names = {info.name for info in certified if info.module is module}
        module_findings.extend(_validate_declarations(module, names))
    return FlowAnalysis(reports=reports, module_findings=module_findings)


# -- per-protocol analysis ---------------------------------------------------


def _analyze_protocol(index: ProjectIndex, info: ClassInfo) -> ProtocolReport:
    if index.kind_of(info) == "process":
        taint = _taint_process(index, info)
        summary = analyze_process(index, info)
    else:
        taint = _taint_automaton(index, info)
        summary = analyze_automaton(index, info)
    declared = info.module.declaration(BOUNDS_DECLARATION).entries.get(
        info.name
    )
    com_findings = _check_bounds(info, summary, declared)
    return ProtocolReport(
        cls=info,
        taint_findings=sorted(set(taint.findings)),
        com_findings=sorted(set(com_findings)),
        sanitizers_used=sorted(taint.sanitizers_used),
        inferred_bound=summary.inferred,
        declared=declared,
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


# -- COM: declared vs inferred bounds ----------------------------------------


def _check_bounds(
    info: ClassInfo,
    summary: SizeSummary,
    declared: Optional[Entry],
) -> List[Finding]:
    if declared is None:
        return [
            Finding.at(
                COM003.id,
                info.module.relative,
                info.node,
                info.name,
                f"certified protocol {info.name} has no "
                "MESSAGE_BOUNDS entry; declare its per-round payload "
                "bound ('constant', 'linear', or 'history' with a "
                "justification)",
            )
        ]
    findings: List[Finding] = []
    line = declared.line

    def add(rule_obj: Rule, message: str) -> None:
        findings.append(
            Finding(
                path=info.module.relative,
                line=line,
                col=0,
                rule=rule_obj.id,
                symbol=info.name,
                message=message,
            )
        )

    if declared.bound not in SIZE_NAMES:
        add(
            COM003,
            f"MESSAGE_BOUNDS entry for {info.name} declares "
            f"unknown bound {declared.bound!r}; expected "
            "'constant', 'linear', or 'history'",
        )
        return findings
    declared_size = SIZE_NAMES[declared.bound]
    if declared_size < summary.inferred and not declared.justification:
        add(
            COM002,
            f"MESSAGE_BOUNDS declares {declared.bound!r} but the "
            f"size interpreter infers "
            f"{size_name(summary.inferred)!r} (accumulating: "
            f"{sorted(summary.accumulating) or 'none'}); add the "
            "(bound, justification) form naming the invariant — "
            "e.g. a MessageSizer ceiling or depth cap — the "
            "analysis cannot see",
        )
    if (
        summary.inferred is Size.HISTORY
        and declared_size is Size.HISTORY
        and not declared.justification
    ):
        add(
            COM001,
            f"{info.name} sends history-accumulating payloads; "
            "route it through repro.compact (Theorem 5) or "
            "justify why full-information growth is intended",
        )
    return findings


# -- declaration validation --------------------------------------------------


def _validate_declarations(
    module: ModuleInfo, certified_names: Set[str]
) -> List[Finding]:
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

    for rule_obj, name, bad_value in (
        (
            TAINT003,
            SANITIZER_DECLARATION,
            "TAINT_SANITIZERS entry {key!r} has no justification; state "
            "why its output is safe against Byzantine inputs",
        ),
        (
            COM003,
            BOUNDS_DECLARATION,
            "malformed MESSAGE_BOUNDS declaration: entry {key!r} must map "
            "to a bound string or a (bound, justification) tuple of strings",
        ),
    ):
        for note in module.declaration(name).malformed:
            if note.kind == "value":
                message = bad_value.format(key=note.key)
            elif note.kind == "key":
                message = f"malformed {name} declaration: non-string key"
            else:
                message = (
                    f"malformed {name} declaration: {name} must be a dict "
                    "literal"
                )
            add(rule_obj, note.node.lineno, message)

    defined = set(module.functions) | set(module.imports)
    for cls in module.classes.values():
        defined.update(cls.methods)
        defined.update(f"{cls.name}.{name}" for name in cls.methods)
    sanitizers = module.declaration(SANITIZER_DECLARATION).entries
    for key, entry in sorted(sanitizers.items()):
        if key not in defined:
            add(
                TAINT003,
                entry.line,
                f"TAINT_SANITIZERS names {key!r}, which this module does "
                "not define — dead entries would silently launder "
                "adversarial data",
            )
    bounds = module.declaration(BOUNDS_DECLARATION).entries
    for key, entry in sorted(bounds.items()):
        if key not in certified_names:
            add(
                COM003,
                entry.line,
                f"MESSAGE_BOUNDS names {key!r}, which is not a certified "
                "protocol class in this module — remove the dead entry",
            )
    return findings
