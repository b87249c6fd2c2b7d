"""Shared AST plumbing for the lint passes."""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.statics.findings import Finding
from repro.statics.rules import Rule


def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``, or ``None`` if not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def annotation_names_set(annotation: Optional[ast.AST]) -> bool:
    """Whether a type annotation denotes a set (``Set``/``FrozenSet``/...)."""
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.split("[")[0].strip()
        if name in ("Set", "FrozenSet", "MutableSet", "set", "frozenset"):
            return True
    return False


class ScopedVisitor(ast.NodeVisitor):
    """An ``ast.NodeVisitor`` that tracks the dotted lexical context.

    Subclasses call :meth:`add` to emit a :class:`Finding` whose
    ``symbol`` is the enclosing ``Class.method`` path, giving baseline
    suppressions a line-number-free identity.
    """

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._scope: List[str] = []

    @property
    def symbol(self) -> str:
        """The current dotted context, ``<module>`` at top level."""
        return ".".join(self._scope) if self._scope else "<module>"

    def add(self, rule: Rule, node: ast.AST, message: str) -> None:
        """Record one violation of ``rule`` at ``node``."""
        self.findings.append(
            Finding.at(rule.id, self.path, node, self.symbol, message)
        )

    # -- scope bookkeeping --------------------------------------------------

    def _visit_scoped(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name)
