"""The one front end: each scanned file read once and parsed once.

:func:`parse_module` is the package's only ``ast.parse``; the
determinism pass reads the :class:`ModuleInfo` it returns.  Which
files get parsed is the runner's policy (``PROTOCOL_PACKAGES`` and
``CLOCK_MODULES`` in :mod:`repro.statics.runner`).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Optional


@dataclasses.dataclass(frozen=True, eq=False)
class ModuleInfo:
    """One parsed module: the path findings carry and its AST."""

    relative: str
    tree: ast.Module


def parse_module(
    source: str, relative: str, path: Optional[pathlib.Path] = None
) -> ModuleInfo:
    """One source text in, one parsed module out.

    A ``SyntaxError`` propagates, so a file that does not parse fails
    the lint run; it names ``path`` when given, else ``relative``, the
    ``<root>/<package>/<module>.py`` path findings carry.
    """
    tree = ast.parse(source, filename=str(path if path is not None else relative))
    return ModuleInfo(relative=relative, tree=tree)
