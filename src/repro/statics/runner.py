"""Pass orchestration: parse each scanned file once, run the
determinism pass over it.

The determinism pass scans the *protocol* packages — ``core``,
``agreement``, ``avalanche``, ``compact``, ``fullinfo`` — plus the
kernel (``arrays``), the fuzzer and the observability subsystem
(``obs``, whose event logs make determinism claims of their own),
because those implement the objects the paper's theorems quantify
over.  The runtime (network, metering, the pool) legitimately reads
clocks and does I/O and is linted only by the general toolchain
(ruff/mypy), not by protolint.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import List, Optional

from repro.statics.determinism import check_determinism
from repro.statics.findings import Finding
from repro.statics.model import parse_module

#: The packages whose files get the determinism pass.  ``obs`` is
#: among them because its records feed determinism claims (diffable
#: event logs) — with one carve-out below.
PROTOCOL_PACKAGES = (
    "arrays", "core", "agreement", "avalanche", "compact", "fullinfo",
    "fuzz", "obs",
)

#: The one sanctioned wall-clock module.  Timing spans are explicitly
#: nondeterministic (docs/observability.md documents the contract:
#: span data never enters an event log's deterministic section), so
#: this module alone may import :mod:`time`; the determinism pass
#: still scans every other ``obs`` file, keeping the clock from
#: leaking into the event schema.
CLOCK_MODULES = ("obs/spans.py",)


@dataclasses.dataclass
class LintResult:
    """Everything one lint run produced: its findings, sorted."""

    findings: List[Finding]

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when any finding exists."""
        return 1 if self.findings else 0


def default_package_root() -> pathlib.Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def collect_findings(package_root: pathlib.Path) -> List[Finding]:
    """The determinism findings of every scanned file, parsing each once."""
    findings: List[Finding] = []
    for package in PROTOCOL_PACKAGES:
        for path in sorted((package_root / package).rglob("*.py")):
            subpath = path.relative_to(package_root).as_posix()
            if subpath in CLOCK_MODULES:
                continue
            module = parse_module(
                path.read_text(), f"{package_root.name}/{subpath}", path
            )
            findings.extend(check_determinism(module))
    return sorted(findings)


def lint_tree(package_root: Optional[pathlib.Path] = None) -> LintResult:
    """Lint ``package_root`` (default: the installed ``repro`` package)."""
    root = package_root if package_root is not None else default_package_root()
    if not root.is_dir():
        raise FileNotFoundError(f"lint root {root} is not a directory")
    return LintResult(findings=collect_findings(root))
