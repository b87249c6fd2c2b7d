"""Protocol-aware static analysis ("protolint").

Coan's construction treats a protocol as a deterministic automaton:
``mu_pq``, ``delta_p`` and ``gamma_p`` are *functions*, and Theorem 2
replays them during reconstruction — so hidden nondeterminism,
wall-clock reads or mutable shared state silently break the formal
guarantees without failing any single-run test.  This package checks
those well-formedness properties by walking the AST, without executing
any protocol:

* :mod:`repro.statics.determinism` — no stray entropy sources, no
  unordered-set iteration; randomness flows through
  :mod:`repro.runtime.rng` (protects Theorem 2's replayability),
* :mod:`repro.statics.purity` — automaton functions and registered
  factories are free of I/O, global mutation and mutable default
  arguments (protects the Section 3.1 formalism),
* :mod:`repro.statics.contracts` — the catalog in
  :mod:`repro.fuzz.protocols` agrees with the source tree
  (protects the conformance sweep's coverage guarantee).

Run it as ``python -m repro lint`` or ``python tools/run_lint.py``;
see ``docs/statics.md`` for the rule reference.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "baseline": ("Baseline",),
    "findings": ("Finding",),
    "report": ("render_json", "render_text"),
    "rules": ("RULES", "Rule", "rule"),
    "runner": ("LintResult", "lint_tree"),
})
