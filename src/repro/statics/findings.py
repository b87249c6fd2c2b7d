"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line``.

    ``symbol`` is the dotted lexical context (``Class.method`` or a
    function name, ``<module>`` at top level); baseline suppressions
    match on ``(rule, path, symbol)`` rather than on line numbers so
    they survive unrelated edits to the file.
    """

    path: str
    line: int
    col: int
    rule: str
    symbol: str
    message: str

    @classmethod
    def at(
        cls, rule: str, path: str, node: ast.AST, symbol: str, message: str
    ) -> "Finding":
        """The finding for rule id ``rule`` at ``node``'s line and column."""
        return cls(
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            symbol=symbol,
            message=message,
        )

    @property
    def suppression_key(self) -> str:
        """The stable identity used by the baseline file."""
        return f"{self.rule}:{self.path}:{self.symbol}"

    def to_json(self) -> Dict[str, Any]:
        """The machine-readable form emitted by ``--format json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }
