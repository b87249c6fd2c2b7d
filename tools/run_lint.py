#!/usr/bin/env python
"""Standalone entry point for protolint (``repro.statics``).

Equivalent to ``python -m repro lint`` but importable without
installing the package: it prepends the checkout's ``src/`` to
``sys.path``, so CI and pre-commit hooks can call it directly.

Run:  python tools/run_lint.py [--format text|json|sarif] [--root DIR]
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    """Run ``repro lint``, defaulting the root to this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.cli import main as cli_main

    argv = list(sys.argv[1:] if argv is None else argv)
    if not any(arg.startswith("--root") for arg in argv):
        argv += ["--root", str(SRC / "repro")]
    return cli_main(["lint"] + argv)


if __name__ == "__main__":
    sys.exit(main())
