"""The purity pass: automaton functions must be functions.

Section 3.1 defines a protocol by four *mathematical* functions —
``mu_pq : Q -> L``, ``delta_p : L^n -> Q``, ``gamma_p : Q -> {BOTTOM} u V``
and the initial-state map.  Every simulation result in the paper
(Lemma 1's pointwise correspondence, Theorem 2's reconstruction, the
Theorem 5 transform) replays them in a context the original never ran
in, so an implementation that performs I/O, mutates shared state, or
leaks state between calls through a mutable default argument is
formally meaningless even when its single-run tests pass.

The pass inspects (a) every ``AutomatonProtocol`` subclass's
implementations of the four functions (plus the message-coercion
hooks, which Theorem 2 also replays) and (b) every ``*_factory``
function in the protocol packages — the constructors the catalog
registers, which must build processes from their arguments alone.
Worker modules (see :data:`repro.statics.runner.WORKER_MODULES`) are
checked in ``all_functions`` mode: their entry points are replayed in
forked pool workers, the process-level analogue of Theorem 2's replay.

A module may exempt specific functions by declaring a module-level
``PURITY_EXEMPT = {"symbol": "justification", ...}`` dict — the
sanctioned, reviewable alternative to per-line ``# noqa`` markers for
code whose impurity is structural (e.g. fork-pool worker plumbing that
must publish context through a module global).  Every entry needs a
non-empty justification and must exempt a symbol the pass actually
checks; invalid or dead entries are themselves findings (PUR005).
"""

from __future__ import annotations

import ast
import pathlib
from typing import List, Optional, Sequence, Set

from repro.statics.findings import Finding
from repro.statics.model import (
    AUTOMATON_ROOT,
    ModuleInfo,
    ProjectIndex,
    parse_module,
)
from repro.statics.rules import rule
from repro.statics.visitor import ScopedVisitor, attribute_chain

#: The AutomatonProtocol methods that Theorem 2 replays.  All of them
#: receive state/messages as arguments and return their result; none
#: may write ``self`` — one ``AutomatonProtocol`` instance is shared by
#: all n processors (see ``automaton_factory``), so ``self``-mutation
#: couples processors outside the channels.
AUTOMATON_METHODS: Set[str] = {
    "initial_state",
    "message",
    "transition",
    "decision",
    "coerce_message",
    "default_message",
}

_IO_ROOTS: Set[str] = {
    "sys",
    "subprocess",
    "socket",
    "logging",
    "shutil",
    "io",
    "requests",
    "urllib",
}
_IO_BUILTINS: Set[str] = {"print", "open", "input", "breakpoint", "exec", "eval"}
_OS_PURE_ATTRS: Set[str] = {"path"}  # os.path.* is pure path algebra

_MUTATING_METHODS: Set[str] = {
    "append",
    "add",
    "update",
    "extend",
    "remove",
    "discard",
    "clear",
    "pop",
    "popitem",
    "setdefault",
    "insert",
    "sort",
    "reverse",
}

PUR001 = rule(
    "PUR001",
    "purity",
    "I/O inside an automaton function or factory",
    "mu/delta/gamma are replayed by Theorem 2 in contexts where their "
    "side effects would repeat or be lost; they must compute, not act",
)
PUR002 = rule(
    "PUR002",
    "purity",
    "global state mutation",
    "shared mutable state couples processors outside the message "
    "channels, breaking the independence Lemma 1's correspondence needs",
)
PUR003 = rule(
    "PUR003",
    "purity",
    "mutable default argument",
    "a mutable default is shared state across calls and processors — "
    "hidden memory the Section 3.1 state set Q does not contain",
)
PUR004 = rule(
    "PUR004",
    "purity",
    "state mutation in an automaton function",
    "mu/delta/gamma take state as an argument and return their result; "
    "one protocol object serves all n processors, so writing self.* "
    "couples processors outside the message channels",
)
PUR005 = rule(
    "PUR005",
    "purity",
    "invalid purity exemption",
    "PURITY_EXEMPT entries are the reviewable alternative to ad-hoc "
    "noqa markers; an entry without a justification, or naming no "
    "symbol this pass checks, documents nothing and must be fixed or "
    "removed",
)

#: The module-level declaration the pass honours.
EXEMPT_DECLARATION = "PURITY_EXEMPT"


def _mutable_default(default: ast.AST) -> bool:
    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in ("list", "dict", "set", "bytearray")
    )


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names.add(name.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


class _FunctionChecker(ScopedVisitor):
    """Checks one automaton method or factory body for impurity."""

    def __init__(
        self,
        path: str,
        module_names: Set[str],
        read_only_self: bool,
    ):
        super().__init__(path)
        self.module_names = module_names
        self.read_only_self = read_only_self
        self._shadowed: Set[str] = set()

    def check(self, node: ast.AST, scope: Sequence[str]) -> List[Finding]:
        # The function's own defaults are evaluated in (and reported
        # under) the enclosing scope, before its name is entered.
        _check_defaults(self, node)
        self._scope = list(scope)
        self._shadowed = _parameter_names(node)
        self.generic_visit(node)
        return self.findings

    # -- I/O ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in _IO_BUILTINS:
            self.add(PUR001, node, f"call to {node.func.id}(...)")
        chain = attribute_chain(node.func)
        if chain is not None and chain[0] not in self._shadowed:
            if chain[0] in _IO_ROOTS:
                self.add(PUR001, node, f"call to {'.'.join(chain)}(...)")
            elif (
                chain[0] == "os"
                and len(chain) >= 2
                and chain[1] not in _OS_PURE_ATTRS
            ):
                self.add(PUR001, node, f"call to {'.'.join(chain)}(...)")
            elif (
                chain[0] in self.module_names
                and len(chain) >= 2
                and chain[-1] in _MUTATING_METHODS
            ):
                self.add(
                    PUR002,
                    node,
                    f"mutating call {'.'.join(chain)}(...) on module-level "
                    f"state {chain[0]!r}",
                )
        self._check_self_mutation_call(node)
        self.generic_visit(node)

    # -- global mutation ----------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.add(
            PUR002, node, f"global statement ({', '.join(node.names)})"
        )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.add(
            PUR002, node, f"nonlocal statement ({', '.join(node.names)})"
        )

    def _store_root(self, target: ast.AST) -> Optional[List[str]]:
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        chain = attribute_chain(target)
        if chain is None and isinstance(target, ast.Name):
            return [target.id]
        return chain

    def _check_store(self, target: ast.AST, node: ast.AST) -> None:
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        root = self._store_root(target)
        if root is None or root[0] in self._shadowed:
            return
        if root[0] in self.module_names:
            self.add(
                PUR002,
                node,
                f"assignment into module-level state {root[0]!r}",
            )
        elif root[0] == "self" and self.read_only_self:
            self.add(
                PUR004,
                node,
                "assignment to self.* inside an automaton function (the "
                "protocol object is shared by all processors)",
            )

    def _check_self_mutation_call(self, node: ast.Call) -> None:
        if not self.read_only_self:
            return
        chain = attribute_chain(node.func)
        if (
            chain is not None
            and chain[0] == "self"
            and len(chain) >= 3
            and chain[-1] in _MUTATING_METHODS
        ):
            self.add(
                PUR004,
                node,
                f"mutating call {'.'.join(chain)}(...) inside an "
                "automaton function (the protocol object is shared)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    # -- defaults (nested defs keep their enclosing symbol) -----------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        _check_defaults(self, node)
        super().visit_FunctionDef(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        _check_defaults(self, node)
        super().visit_AsyncFunctionDef(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        _check_defaults(self, node)
        self.generic_visit(node)


def _parameter_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    args = getattr(node, "args", None)
    if args is None:
        return names
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    names.discard("self")
    return names


def _check_defaults(checker: _FunctionChecker, node: ast.AST) -> None:
    args = getattr(node, "args", None)
    if args is None:
        return
    for default in list(args.defaults) + [
        d for d in args.kw_defaults if d is not None
    ]:
        if _mutable_default(default):
            checker.add(
                PUR003,
                default,
                "mutable default argument (shared across every call)",
            )


def _exemption_findings(module: ModuleInfo) -> List[Finding]:
    """PUR005 for every ``PURITY_EXEMPT`` shape the grammar rejects."""
    findings: List[Finding] = []
    for note in module.declaration(EXEMPT_DECLARATION).malformed:
        if note.kind == "dict":
            message = (
                f"{EXEMPT_DECLARATION} must be a literal dict of "
                "symbol -> justification"
            )
        elif note.kind == "key":
            message = (
                f"{EXEMPT_DECLARATION} keys must be string literals "
                "naming checked symbols"
            )
        else:
            message = (
                f"exemption for {note.key!r} has no justification — "
                "an unexplained suppression is a process violation"
            )
        findings.append(Finding.at(
            PUR005.id, module.relative, note.node, note.key or "<module>",
            message,
        ))
    return findings


def check_purity(
    index: ProjectIndex, module: ModuleInfo, all_functions: bool = False
) -> List[Finding]:
    """The purity findings of one indexed module.

    By default only automaton methods and ``*_factory`` constructors
    are checked.  ``all_functions=True`` extends the check to every
    module-level function — used for worker modules, whose entry
    points are replayed in forked pool processes.  Either way, symbols
    named in a valid ``PURITY_EXEMPT`` declaration are skipped.
    """
    path = module.relative
    module_names = _module_level_names(module.tree)
    exemptions = module.declaration(EXEMPT_DECLARATION).entries
    findings = _exemption_findings(module)
    used_exemptions: Set[str] = set()

    def exempted(symbol: str) -> bool:
        if symbol in exemptions:
            used_exemptions.add(symbol)
            return True
        return False

    for cls in module.classes.values():
        if not index.is_subclass(cls, AUTOMATON_ROOT, by_name=True):
            continue
        for name, item in cls.methods.items():
            if name not in AUTOMATON_METHODS:
                continue
            if exempted(f"{cls.name}.{name}"):
                continue
            checker = _FunctionChecker(path, module_names, read_only_self=True)
            findings.extend(checker.check(item, [cls.name, name]))

    for name, item in module.functions.items():
        if not (all_functions or name.endswith("_factory")):
            continue
        if exempted(name):
            continue
        checker = _FunctionChecker(path, module_names, read_only_self=False)
        findings.extend(checker.check(item, [name]))

    for symbol, entry in exemptions.items():
        if symbol not in used_exemptions:
            findings.append(Finding.at(
                PUR005.id, path, entry.node, symbol,
                f"exemption for {symbol!r} matches no symbol this pass "
                "checks — delete the dead entry",
            ))
    return findings


def run_purity_pass(
    source: str, path: str, all_functions: bool = False
) -> List[Finding]:
    """Lint one file given as text (see :func:`check_purity`).

    With no tree to resolve against, a class is an automaton when its
    bases reach one spelled ``AutomatonProtocol`` within this file.
    """
    index = ProjectIndex(pathlib.Path(path).parent, packages=(), modules=())
    module = index.add(parse_module(source, path))
    return check_purity(index, module, all_functions)
