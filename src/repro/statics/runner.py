"""Pass orchestration: index the tree once, run every pass over it,
apply the baseline.

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

from repro.statics.baseline import Baseline, Suppression
from repro.statics.determinism import check_determinism
from repro.statics.findings import Finding
from repro.statics.flow.passes import analyze_index
from repro.statics.model import FLOW_PACKAGES, SUPPORT_MODULES, ProjectIndex

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
    """Everything one lint run produced.

    ``findings`` are actionable (unsuppressed); ``suppressed`` matched
    a baseline entry; ``unused_suppressions`` are baseline entries
    that matched nothing and should be deleted.
    """

    findings: List[Finding]
    suppressed: List[Finding]
    unused_suppressions: List[Suppression]
    stale_suppressions: List[str] = dataclasses.field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when any unsuppressed finding exists."""
        return 1 if self.findings else 0


def default_package_root() -> pathlib.Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def collect_findings(package_root: pathlib.Path) -> List[Finding]:
    """Run every pass over ``package_root``, parsing each file once."""
    index = ProjectIndex(
        package_root,
        packages=PROTOCOL_PACKAGES + FLOW_PACKAGES,
        modules=SUPPORT_MODULES,
    )
    clocks = [index.module(subpath) for subpath in CLOCK_MODULES]
    findings: List[Finding] = []
    for module in index.under(PROTOCOL_PACKAGES):
        if module not in clocks:
            findings.extend(check_determinism(module))
    findings.extend(analyze_index(index).findings)
    return sorted(findings)


def lint_tree(
    package_root: Optional[pathlib.Path] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Lint ``package_root`` (default: the installed ``repro`` package)."""
    root = package_root if package_root is not None else default_package_root()
    if not root.is_dir():
        raise FileNotFoundError(f"lint root {root} is not a directory")
    baseline = baseline if baseline is not None else Baseline()
    actionable: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in collect_findings(root):
        if baseline.match(finding) is not None:
            suppressed.append(finding)
        else:
            actionable.append(finding)
    return LintResult(
        findings=actionable,
        suppressed=suppressed,
        unused_suppressions=baseline.unused(),
        stale_suppressions=list(baseline.stale),
    )


def find_default_baseline(
    package_root: pathlib.Path,
) -> Optional[pathlib.Path]:
    """Locate ``tools/lint_baseline.json`` near the tree being linted.

    Checked in order: the current working directory's ``tools/``
    (developer runs from the repo root), then the checkout the package
    lives in (``package_root/../../tools``, i.e. ``src/repro`` ->
    repo root).  Returns ``None`` when neither exists.
    """
    candidates = [
        pathlib.Path.cwd() / "tools" / "lint_baseline.json",
        package_root.parent.parent / "tools" / "lint_baseline.json",
    ]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None
