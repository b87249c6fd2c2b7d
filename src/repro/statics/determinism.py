"""The determinism pass: no entropy outside :mod:`repro.runtime.rng`.

Theorem 2 reconstructs a processor's state by *replaying* ``delta_p``
over reconstructed message tuples; Theorem 5's compact protocol
replays whole blocks.  Both silently produce garbage if any protocol
function consults a source of nondeterminism the replay cannot see:
an unseeded RNG, the wall clock, ``os.urandom``, or the
hash-randomized iteration order of a ``set``.  This pass bans those
sources from the protocol packages — all randomness must arrive as an
explicit :class:`numpy.random.Generator` derived via
:func:`repro.runtime.rng.derive_rng` from the run's seed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.statics.findings import Finding
from repro.statics.model import ModuleInfo
from repro.statics.rules import rule
from repro.statics.visitor import (
    ScopedVisitor,
    annotation_names_set,
    attribute_chain,
)

BANNED_MODULES: Dict[str, str] = {
    "random": "route randomness through repro.runtime.rng instead",
    "secrets": "route randomness through repro.runtime.rng instead",
    "uuid": "uuid reads OS entropy; derive ids from the run seed",
    "time": "protocols advance by rounds, never by the wall clock",
    "datetime": "protocols advance by rounds, never by the wall clock",
}

# Names that are entropy sources even when their module is importable
# for other reasons (``os`` is not banned wholesale).
BANNED_FROM_IMPORTS: Set[str] = {"urandom", "getrandom"}

DET001 = rule(
    "DET001",
    "banned import",
    "Theorem 2 replays delta_p; modules like random/time inject state "
    "the replay cannot reproduce",
)
DET002 = rule(
    "DET002",
    "entropy or wall-clock call",
    "a call into an OS entropy pool or clock makes mu/delta/gamma "
    "non-functions, voiding the Section 3.1 formalism",
)
DET003 = rule(
    "DET003",
    "global numpy randomness",
    "np.random.* bypasses the seed threading of repro.runtime.rng, so "
    "executions stop being replayable from their seed",
)
DET004 = rule(
    "DET004",
    "iteration over an unordered set",
    "set order depends on PYTHONHASHSEED; iterating one inside a "
    "protocol makes nominally identical executions diverge",
)
DET005 = rule(
    "DET005",
    "arbitrary element extraction",
    "next(iter(s)) / s.pop() pick a hash-order-dependent element; "
    "Theorem 2's reconstruction would replay a different one",
)


class _DeterminismVisitor(ScopedVisitor):
    def __init__(self, path: str):
        super().__init__(path)
        # Local aliases bound to banned modules / names, per file:
        # ``import random as r`` -> {"r": "random"}.
        self._module_aliases: Dict[str, str] = {}
        self._name_aliases: Dict[str, str] = {}
        # ``self.<attr>`` names annotated as sets, per enclosing class.
        self._set_attrs: List[Set[str]] = []

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in BANNED_MODULES:
                self.add(
                    DET001,
                    node,
                    f"import of {alias.name!r}: {BANNED_MODULES[root]}",
                )
                self._module_aliases[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in BANNED_MODULES:
            self.add(
                DET001,
                node,
                f"import from {node.module!r}: {BANNED_MODULES[root]}",
            )
            for alias in node.names:
                self._name_aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif root == "os":
            for alias in node.names:
                if alias.name in BANNED_FROM_IMPORTS:
                    self.add(
                        DET001,
                        node,
                        f"import of os.{alias.name}: OS entropy is "
                        "invisible to seeded replay",
                    )
                    self._name_aliases[alias.asname or alias.name] = (
                        f"os.{alias.name}"
                    )
        self.generic_visit(node)

    # -- calls --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = attribute_chain(node.func)
        if chain is not None:
            self._check_call_chain(node, chain)
        self._check_arbitrary_element(node)
        self.generic_visit(node)

    def _check_call_chain(self, node: ast.Call, chain: List[str]) -> None:
        root = chain[0]
        if len(chain) >= 2 and root == "os" and chain[1] in BANNED_FROM_IMPORTS:
            self.add(
                DET002,
                node,
                f"call to {'.'.join(chain)}: OS entropy is invisible to "
                "seeded replay",
            )
        elif root in self._module_aliases:
            self.add(
                DET002,
                node,
                f"call into banned module "
                f"{self._module_aliases[root]!r}: "
                f"{BANNED_MODULES[self._module_aliases[root]]}",
            )
        elif len(chain) == 1 and root in self._name_aliases:
            self.add(
                DET002,
                node,
                f"call to {self._name_aliases[root]} (imported as "
                f"{root!r})",
            )
        elif len(chain) >= 3 and root in ("np", "numpy") and chain[1] == "random":
            self.add(
                DET003,
                node,
                f"{'.'.join(chain)}(...) uses numpy's global/unmanaged "
                "randomness; use repro.runtime.rng.make_rng/derive_rng",
            )

    def _check_arbitrary_element(self, node: ast.Call) -> None:
        # next(iter(x)) — an arbitrary element of any unordered thing.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "next"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "iter"
        ):
            self.add(
                DET005,
                node,
                "next(iter(...)) extracts a hash-order-dependent element; "
                "unpack (x,) = s or sort first",
            )
        # s.pop() with no argument on a set-annotated attribute.
        if (
            not node.args
            and not node.keywords
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and self._is_set_attr(node.func.value)
        ):
            self.add(
                DET005,
                node,
                "set.pop() removes a hash-order-dependent element",
            )

    # -- set iteration ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        attrs: Set[str] = set()
        for child in ast.walk(node):
            if (
                isinstance(child, ast.AnnAssign)
                and isinstance(child.target, ast.Attribute)
                and isinstance(child.target.value, ast.Name)
                and child.target.value.id == "self"
                and annotation_names_set(child.annotation)
            ):
                attrs.add(child.target.attr)
        self._set_attrs.append(attrs)
        try:
            super().visit_ClassDef(node)
        finally:
            self._set_attrs.pop()

    def _is_set_attr(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and any(node.attr in attrs for attrs in self._set_attrs)
        )

    def _is_unordered_iterable(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return f"{node.func.id}(...)"
        if self._is_set_attr(node):
            return f"self.{node.attr} (annotated as a set)"  # type: ignore[attr-defined]
        return None

    def _check_iteration(self, iterable: ast.AST, node: ast.AST) -> None:
        what = self._is_unordered_iterable(iterable)
        if what is not None:
            self.add(
                DET004,
                node,
                f"iteration over {what}: order depends on PYTHONHASHSEED; "
                "wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in node.generators:  # type: ignore[attr-defined]
            self._check_iteration(comp.iter, comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def check_determinism(module: ModuleInfo) -> List[Finding]:
    """The determinism findings of one indexed module."""
    visitor = _DeterminismVisitor(module.relative)
    visitor.visit(module.tree)
    return visitor.findings
