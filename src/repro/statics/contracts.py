"""The contract pass: the catalog agrees with the source tree.

The registry of ``repro.fuzz.protocols`` is the coverage contract of
this repository: the conformance sweep in
``tests/integration/test_catalog.py``, seeded fuzzing, the
schedule-equivalence suite and the closedness cross-check run *every*
registered protocol, so a factory that never gets registered silently
opts out of that safety net.  This pass cross-checks the registry
module's AST against the tree without importing or executing any
protocol code:

* every ``*_factory`` in ``agreement/``, ``compact/`` and
  ``avalanche/`` is built by some ``ProtocolSpec(...)`` or listed (with
  a justification) in ``CATALOG_EXEMPT``;
* ``CATALOG_EXEMPT`` names real, genuinely unregistered factories;
* every non-randomized spec declares a round bound (the engine cap is
  derived from it; a run the harness believes is randomized is only
  capped by a constant);
* every spec declares its resilience as a literal (``resilience=3`` is
  ``n >= 3t + 1``) and the module defining the factory states that
  bound in its docstring, so the registered requirement can never
  drift from the documented one.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Dict, List, Optional, Set

from repro.statics.findings import Finding
from repro.statics.model import ModuleInfo, ProjectIndex
from repro.statics.rules import Rule, rule

#: Packages whose top-level ``*_factory`` functions fall under the
#: registration contract.
CONTRACT_PACKAGES = ("agreement", "compact", "avalanche")

#: The module holding the registry and the exemption declaration.
CATALOG_MODULE = "fuzz/protocols.py"
EXEMPT_DECLARATION = "CATALOG_EXEMPT"

CON001 = rule(
    "CON001",
    "contracts",
    "unregistered factory",
    "an unregistered protocol skips the registry-wide conformance "
    "sweep, so nothing checks it against the adversary gallery",
)
CON002 = rule(
    "CON002",
    "contracts",
    "stale or contradictory exemption",
    "CATALOG_EXEMPT must name real, unregistered factories or the "
    "exemption list itself drifts from the tree",
)
CON003 = rule(
    "CON003",
    "contracts",
    "missing round bound",
    "the engine cap is derived from spec.rounds(config); a "
    "non-randomized spec without one can loop forever unnoticed",
)
CON004 = rule(
    "CON004",
    "contracts",
    "resilience bound undeclared or undocumented",
    "the paper's results are parameterized by n >= 3t + 1 (or 4t + 1 "
    "for the fast variants); the registered requirement must match "
    "the module's documented bound",
)


@dataclasses.dataclass
class CatalogEntry:
    """The statically extracted shape of one ``ProtocolSpec(...)``."""

    name: str
    line: int
    factories: Set[str]
    rounds_is_none: bool
    randomized: bool
    bound: Optional[str]


def _lambda_factories(
    body: ast.AST, helpers: Dict[str, Set[str]]
) -> Set[str]:
    found: Set[str] = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Name):
            if node.id.endswith("_factory"):
                found.add(node.id)
            elif node.id in helpers:
                found |= helpers[node.id]
        elif isinstance(node, ast.Attribute) and node.attr.endswith(
            "_factory"
        ):
            found.add(node.attr)
    return found


def _is_constant(node: Optional[ast.expr], value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _entry_from_call(
    call: ast.Call, helpers: Dict[str, Set[str]]
) -> CatalogEntry:
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
    name = keywords.get("name")
    build = keywords.get("build")
    rounds = keywords.get("rounds")
    resilience = keywords.get("resilience")
    return CatalogEntry(
        # A spec-returning function names its specs with an expression.
        name=(
            str(name.value)
            if isinstance(name, ast.Constant)
            else ast.unparse(name) if name is not None else "<unnamed>"
        ),
        line=call.lineno,
        factories=(
            _lambda_factories(build, helpers) if build is not None else set()
        ),
        rounds_is_none=rounds is None or _is_constant(rounds, None),
        randomized=_is_constant(keywords.get("randomized"), True),
        bound=(
            f"{resilience.value}t + 1"
            if isinstance(resilience, ast.Constant)
            and isinstance(resilience.value, int)
            else None
        ),
    )


def catalog_entries(module: ModuleInfo) -> List[CatalogEntry]:
    """Every ``ProtocolSpec(...)`` call in the parsed registry module."""
    # A ``build`` may name a module-level helper wrapping the factory;
    # map one level of indirection: helper name -> factories inside.
    helpers = {
        name: _lambda_factories(node, {})
        for name, node in module.functions.items()
    }
    return [
        _entry_from_call(node, helpers)
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ProtocolSpec"
    ]


def factory_modules(index: ProjectIndex) -> Dict[str, ModuleInfo]:
    """Every top-level ``*_factory`` def under the contract packages."""
    return {
        name: module
        for module in index.under(CONTRACT_PACKAGES)
        for name in module.functions
        if name.endswith("_factory")
    }


def _bound_documented(docstring: str, bound: str) -> bool:
    # "3t + 1" matches "3t + 1", "3t+1" and "3 * t + 1"; an explicitly
    # negated mention ("no 3t + 1 bound") does not count.
    coefficient = bound.split("t")[0].strip()
    spaced = coefficient + r"\s*\*?\s*t\s*\+\s*1" if coefficient else r"\bt\s*\+\s*1"
    text = " ".join(docstring.split())
    for match in re.finditer(spaced, text):
        prefix = text[: match.start()].rstrip().lower()
        if prefix.endswith("no") or prefix.endswith("not"):
            continue
        # "43t + 1" must not satisfy a query for "3t + 1".
        if match.start() > 0 and text[match.start() - 1].isdigit():
            continue
        return True
    return False


def check_contracts(index: ProjectIndex) -> List[Finding]:
    """All contract findings of an indexed tree.

    An absent ``fuzz/protocols.py`` yields none, so fixture trees
    exercising only the other passes stay valid.
    """
    catalog = index.module(CATALOG_MODULE)
    if catalog is None:
        return []
    relative = catalog.relative
    entries = catalog_entries(catalog)
    declaration = catalog.declaration(EXEMPT_DECLARATION)
    exemptions = declaration.entries
    factories = factory_modules(index)
    registered: Set[str] = set()
    for entry in entries:
        registered |= entry.factories

    findings: List[Finding] = []

    def add(
        rule_obj: Rule,
        line: int,
        symbol: str,
        message: str,
        path: str = relative,
    ) -> None:
        findings.append(
            Finding(
                path=path,
                line=line,
                col=0,
                rule=rule_obj.id,
                symbol=symbol,
                message=message,
            )
        )

    for note in declaration.malformed:
        add(
            CON002,
            note.node.lineno,
            note.key or "<module>",
            {
                "dict": f"{EXEMPT_DECLARATION} must be a literal dict of "
                "factory -> justification",
                "key": f"{EXEMPT_DECLARATION} keys must be string literals "
                "naming factories",
                "value": f"{EXEMPT_DECLARATION} entry for {note.key} has no "
                "justification — say why the factory stays out of the "
                "catalog",
            }[note.kind],
        )
    for name, module in factories.items():
        if name not in registered and name not in exemptions:
            add(
                CON001,
                1,
                name,
                f"{name} (defined in {module.relative}) is neither "
                "built by a ProtocolSpec nor exempted in CATALOG_EXEMPT",
                path=module.relative,
            )
    for name in sorted(exemptions):
        if name not in factories:
            add(
                CON002,
                1,
                name,
                f"CATALOG_EXEMPT lists {name}, which no contract package "
                "defines",
            )
        elif name in registered:
            add(
                CON002,
                1,
                name,
                f"CATALOG_EXEMPT lists {name}, but a ProtocolSpec builds it "
                "— remove the stale exemption",
            )

    for entry in entries:
        if entry.rounds_is_none and not entry.randomized:
            add(
                CON003,
                entry.line,
                entry.name,
                f"entry {entry.name!r} is not randomized but declares no "
                "round bound (rounds=None)",
            )
        if entry.bound is None:
            add(
                CON004,
                entry.line,
                entry.name,
                f"entry {entry.name!r} declares no literal resilience "
                "(resilience=c for n >= c*t + 1)",
            )
            continue
        for factory in sorted(entry.factories):
            module = factories.get(factory)
            if module is None:
                continue
            if not _bound_documented(module.docstring, entry.bound):
                add(
                    CON004,
                    entry.line,
                    entry.name,
                    f"entry {entry.name!r} requires n >= {entry.bound} but "
                    f"the docstring of {module.relative} never states "
                    "that bound",
                )
    return findings
