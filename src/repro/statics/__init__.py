"""Protocol-aware static analysis ("protolint").

Coan's construction treats a protocol as a deterministic automaton:
``mu_pq``, ``delta_p`` and ``gamma_p`` are *functions*, and Theorem 2
replays them during reconstruction.  Most of that is checked by
running the code (no I/O under an audit hook, a two-process hash-seed
replay, hostile payloads against every registered protocol); this
package checks by walking the AST what those runs miss
(``docs/statics.md`` names the planted mutants behind it):

* :mod:`repro.statics.determinism` — no stray entropy sources, no
  unordered-set iteration; randomness flows through
  :mod:`repro.runtime.rng` (protects Theorem 2's replayability).

Whether the catalog in :mod:`repro.fuzz.protocols` covers every
factory is checked over the live registry by
``tests/integration/test_catalog.py``, not here.

Run it as ``python -m repro lint`` or ``python tools/run_lint.py``;
see ``docs/statics.md`` for the rule reference.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "findings": ("Finding",),
    "report": ("render_json", "render_text"),
    "rules": ("RULES", "Rule", "rule"),
    "runner": ("LintResult", "lint_tree"),
})
