"""Pass orchestration: index the tree once, run every pass over it,
apply the baseline.

The scanned scope is deliberately the *protocol* packages — ``core``,
``agreement``, ``avalanche``, ``compact``, ``fullinfo`` — plus the
kernel (``arrays``) and the observability subsystem (``obs``, whose
event logs make determinism claims of their own), because those
implement the objects the paper's theorems quantify over.  The
runtime (network, metering, the pool) legitimately does I/O and
is linted only by the general toolchain (ruff/mypy), not by protolint.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import List, Optional, Tuple

from repro.statics.baseline import Baseline, Suppression
from repro.statics.contracts import (
    CATALOG_MODULE,
    CONTRACT_PACKAGES,
    check_contracts,
)
from repro.statics.determinism import check_determinism
from repro.statics.findings import Finding
from repro.statics.flow.passes import FlowAnalysis, analyze_index
from repro.statics.model import FLOW_PACKAGES, SUPPORT_MODULES, ProjectIndex
from repro.statics.purity import check_purity

#: The packages whose files get the determinism and purity passes.
#: ``arrays`` joined when the hash-consing store landed: interning is
#: observationally pure and must stay that way (canonical nodes are
#: compared and cached across processes), so its module-level shared
#: registry carries a ``PURITY_EXEMPT`` justification rather than an
#: exclusion from scanning.  ``obs`` joined with the observability
#: subsystem: its records feed determinism claims (diffable event
#: logs), so the same bans apply to it — with one carve-out below.
PROTOCOL_PACKAGES = (
    "arrays", "core", "agreement", "avalanche", "compact", "fullinfo",
    "fuzz", "obs",
)

#: Modules whose entry points are replayed *outside* the calling
#: process (forked sweep-pool workers) — the process-level analogue of
#: the Theorem 2 replay that motivates the purity pass.  They get the
#: purity pass over every module-level function; structural impurities
#: (fork-pool context globals, the process-wide observer slot) are
#: exempted in-module via a justified ``PURITY_EXEMPT`` declaration
#: rather than ad-hoc markers.
WORKER_MODULES = (
    "analysis/parallel.py", "arrays/flat.py", "arrays/store.py",
    "fuzz/campaign.py", "obs/core.py",
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
    that matched nothing and should be deleted.  ``flow`` is the
    protoflow analysis the FLOW/COM/TAINT findings came from, which
    ``--certificates`` renders instead of analysing the tree again.
    """

    findings: List[Finding]
    suppressed: List[Finding]
    unused_suppressions: List[Suppression]
    stale_suppressions: List[str] = dataclasses.field(default_factory=list)
    flow: Optional[FlowAnalysis] = None

    @property
    def exit_code(self) -> int:
        """0 when clean; 1 when any unsuppressed finding exists."""
        return 1 if self.findings else 0


def default_package_root() -> pathlib.Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def _run_passes(
    package_root: pathlib.Path,
) -> Tuple[List[Finding], FlowAnalysis]:
    """Every pass over one index of the tree: each file parsed once."""
    index = ProjectIndex(
        package_root,
        packages=PROTOCOL_PACKAGES + FLOW_PACKAGES + CONTRACT_PACKAGES,
        modules=WORKER_MODULES + SUPPORT_MODULES + (CATALOG_MODULE,),
    )
    workers = [
        module
        for module in map(index.module, WORKER_MODULES)
        if module is not None
    ]
    clocks = [index.module(subpath) for subpath in CLOCK_MODULES]
    findings: List[Finding] = []
    for module in index.under(PROTOCOL_PACKAGES):
        if module not in clocks:
            findings.extend(check_determinism(module))
        # Worker modules get the stricter all-functions mode below; the
        # default mode would report their (live) exemptions as dead.
        if module not in workers:
            findings.extend(check_purity(index, module))
    for module in workers:
        findings.extend(check_purity(index, module, all_functions=True))
    findings.extend(check_contracts(index))
    flow = analyze_index(index)
    findings.extend(flow.findings)
    return sorted(findings), flow


def collect_findings(package_root: pathlib.Path) -> List[Finding]:
    """Run every pass over the tree rooted at ``package_root``."""
    return _run_passes(package_root)[0]


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
    findings, flow = _run_passes(root)
    for finding in findings:
        if baseline.match(finding) is not None:
            suppressed.append(finding)
        else:
            actionable.append(finding)
    return LintResult(
        findings=actionable,
        suppressed=suppressed,
        unused_suppressions=baseline.unused(),
        stale_suppressions=list(baseline.stale),
        flow=flow,
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
