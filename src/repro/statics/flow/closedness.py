"""The communication-closedness pass (FLOW rule family).

The engine runs protocols in lockstep — ``outgoing(r)`` then
``receive(r)``, exactly once each per round — so the canonical form's
closedness property reduces to three checkable shape constraints on
the send and receive paths (each path followed interprocedurally
through ``self`` methods and ``__init__``-bound helper objects):

* **FLOW001** — the receive path must not capture the raw round-r
  message *map* into persistent state.  Storing individual received
  values is what state update *is*; storing the whole map indexed for
  later inspection re-opens round r after it closed.
* **FLOW002** — the send path must not read an attribute that nothing
  ever writes (not ``__init__``, not any method, not a class-level
  default, not an indexed ancestor).  Such state has no provenance in
  the round structure at all.
* **FLOW003** — the send path must not mutate processor state:
  ``mu_pq`` is a pure function of the end-of-round-(r-1) state.  Real
  protocols with a drain idiom (outbox swap) or send-side scheduling
  carry a justified baseline entry instead of a rewrite — the
  certificate then reports them ``waived`` rather than ``closed``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import List, Optional, Set, Tuple

from repro.statics.findings import Finding
from repro.statics.flow.rules import FLOW001, FLOW002, FLOW003
from repro.statics.model import (
    ClassInfo,
    Method,
    ProjectIndex,
    parameter_names,
)
from repro.statics.visitor import attribute_chain

#: Mutating container methods on ``self``-rooted receivers.
_MUTATORS = frozenset(
    {
        "append", "add", "extend", "insert", "update", "setdefault",
        "discard", "remove", "pop", "popitem", "clear", "learn",
    }
)

#: Attributes the runtime base classes own; never "unprovenanced".
_BASE_ATTRS = frozenset(
    {"process_id", "config", "decided", "decision", "decision_round"}
)


@dataclasses.dataclass
class FlowSummary:
    """FLOW findings for one certified class."""

    findings: List[Finding]
    structure: str


def analyze_flow(index: ProjectIndex, info: ClassInfo) -> FlowSummary:
    """Run all three FLOW checks over one ``Process`` subclass."""
    send_path = index.reachable_methods(info, "outgoing")
    findings = _check_send_mutations(send_path)
    findings.extend(_check_map_capture(index, info))
    findings.extend(_check_provenance(index, info, send_path))
    return FlowSummary(
        findings=sorted(findings), structure=_structure_of(index, info)
    )


def _structure_of(index: ProjectIndex, info: ClassInfo) -> str:
    """``"block(k)"`` for blocked protocols, ``"lockstep"`` otherwise.

    Block structure shows up as modular round arithmetic over the
    block parameter — either inline (``round % self.k``) or delegated
    to a schedule helper bound in ``__init__`` (``BlockSchedule``'s
    ``// self.block_length``), so bound helper classes are scanned too.
    """
    classes = list(index.mro(info))
    classes.extend(index.static_bindings(info).values())
    for cls in classes:
        for method in cls.methods.values():
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Mod, ast.FloorDiv))
                    and isinstance(node.right, ast.Attribute)
                    and node.right.attr in ("k", "block_length")
                ):
                    return "block(k)"
    return "lockstep"


# -- FLOW003: send-path purity -----------------------------------------------


def _check_send_mutations(send_path: List[Method]) -> List[Finding]:
    findings: List[Finding] = []
    for owner, name, method in send_path:
        for node in ast.walk(method):
            mutation = _mutation_of(node)
            if mutation is None:
                continue
            attr, site = mutation
            findings.append(
                Finding.at(
                    FLOW003.id,
                    owner.module.relative,
                    site,
                    f"{owner.name}.{name}",
                    f"send path writes self.{attr}; mu_pq must be a "
                    "pure function of the pre-round state (drain or "
                    "schedule in receive(), or baseline with the "
                    "invariant that makes this safe)",
                )
            )
    return findings


def _mutation_of(node: ast.AST) -> Optional[Tuple[str, ast.AST]]:
    """The ``self`` attribute ``node`` mutates, if any."""
    if isinstance(node, ast.Assign):
        # Tuple-swap drains mutate too: ``a, self.x = self.x, []``.
        candidates = list(node.targets) + [
            element
            for target in node.targets
            if isinstance(target, (ast.Tuple, ast.List))
            for element in target.elts
        ]
        for candidate in candidates:
            found = _self_rooted(candidate)
            if found is not None:
                return found, node
        return None
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return None
        found = _self_rooted(node.target)
        return (found, node) if found is not None else None
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        if (
            chain is not None
            and chain[0] == "self"
            and len(chain) >= 3
            and chain[-1] in _MUTATORS
        ):
            return chain[1], node
    if isinstance(node, ast.Delete):
        for candidate in node.targets:
            found = _self_rooted(candidate)
            if found is not None:
                return found, node
    return None


def _self_rooted(target: ast.expr) -> Optional[str]:
    if isinstance(target, ast.Subscript):
        target = target.value
    chain = attribute_chain(target)
    if chain is not None and chain[0] == "self" and len(chain) >= 2:
        return chain[1]
    return None


# -- FLOW001: raw map capture ------------------------------------------------


def _check_map_capture(index: ProjectIndex, info: ClassInfo) -> List[Finding]:
    findings: List[Finding] = []
    found = index.find_method(info, "receive")
    if found is None:
        return findings
    owner, method = found
    bindings = index.static_bindings(info)
    map_params = set(parameter_names(method)[1:2])
    # One level of interprocedural propagation: helpers the map is
    # passed to, by parameter position.
    frontier: List[Tuple[ClassInfo, ast.FunctionDef, Set[str]]] = [
        (owner, method, map_params)
    ]
    seen: Set[Tuple[str, str]] = set()
    while frontier:
        cls, fn, maps = frontier.pop(0)
        key = (cls.qualname, fn.name)
        if key in seen or not maps:
            continue
        seen.add(key)
        findings.extend(_map_captures_in(cls, fn, maps))
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None or chain[0] != "self":
                continue
            passed = {
                position
                for position, arg in enumerate(node.args)
                if isinstance(arg, ast.Name) and arg.id in maps
            }
            if not passed:
                continue
            target_class: Optional[ClassInfo] = None
            name = chain[-1]
            if len(chain) == 2:
                target_class = cls
            elif len(chain) >= 3 and chain[1] in bindings:
                target_class = bindings[chain[1]]
            if target_class is None:
                continue
            resolved = index.find_method(target_class, name)
            if resolved is None:
                continue
            callee_owner, callee = resolved
            callee_params = parameter_names(callee)
            callee_maps = {
                callee_params[position]
                for position in passed
                if position < len(callee_params)
            }
            frontier.append((callee_owner, callee, callee_maps))
    return findings


def _map_captures_in(
    cls: ClassInfo, fn: ast.FunctionDef, maps: Set[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(fn):
        stored: Optional[str] = None
        site: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Name) and node.value.id in maps:
                for target in node.targets:
                    attr = _self_rooted(target)
                    if attr is not None:
                        stored, site = attr, node
        elif isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if (
                chain is not None
                and chain[0] == "self"
                and len(chain) >= 3
                and chain[-1] in ("append", "update", "setdefault", "add")
                and any(
                    isinstance(arg, ast.Name) and arg.id in maps
                    for arg in node.args
                )
            ):
                stored, site = chain[1], node
        if stored is not None and site is not None:
            findings.append(
                Finding.at(
                    FLOW001.id,
                    cls.module.relative,
                    site,
                    f"{cls.name}.{fn.name}",
                    f"the raw incoming message map is captured into "
                    f"self.{stored}; extract and validate the values "
                    "this round instead of re-reading round-r "
                    "messages later (communication-closedness)",
                )
            )
    return findings


# -- FLOW002: provenance of send-path reads ----------------------------------


def _check_provenance(
    index: ProjectIndex, info: ClassInfo, send_path: List[Method]
) -> List[Finding]:
    written: Set[str] = set(_BASE_ATTRS)
    written.update(index.static_bindings(info))
    for cls in index.mro(info):
        for node in ast.walk(cls.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _self_rooted(target)
                    if attr is not None:
                        written.add(attr)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for element in target.elts:
                            attr = _self_rooted(element)
                            if attr is not None:
                                written.add(attr)
                    elif isinstance(target, ast.Name):
                        # Class-level defaults double as attributes.
                        written.add(target.id)
            elif isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if (
                    chain is not None
                    and chain[0] == "self"
                    and len(chain) >= 3
                    and chain[-1] in _MUTATORS
                ):
                    written.add(chain[1])

    findings: List[Finding] = []
    flagged: Set[str] = set()
    mro_names = {cls.qualname for cls in index.mro(info)}
    for owner, name, method in send_path:
        if owner.qualname not in mro_names:
            # Helper-class methods read the helper's own state, not the
            # protocol's; their attributes are bound by their __init__.
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            chain = attribute_chain(node)
            if (
                chain is not None
                and chain[0] == "self"
                and len(chain) >= 2
                and chain[1] not in written
                and chain[1] not in flagged
                and index.find_method(info, chain[1]) is None
            ):
                flagged.add(chain[1])
                findings.append(
                    Finding.at(
                        FLOW002.id,
                        owner.module.relative,
                        node,
                        f"{owner.name}.{name}",
                        f"send path reads self.{chain[1]}, which no "
                        "__init__, receive path, or class default "
                        "ever writes — the value has no provenance "
                        "in the round structure",
                    )
                )
    return findings
