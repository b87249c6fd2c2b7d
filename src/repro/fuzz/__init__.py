"""Seeded adversarial fuzzing with differential oracles.

The paper's guarantees are universally quantified over adversary
behaviour; this package searches that space.  One seed determines a
whole campaign — generated scenarios, every adversary decision,
oracle verdicts, shrunk counterexamples — so `repro fuzz --seed S` is
byte-reproducible across runs and worker counts.

Layout:

* :mod:`repro.fuzz.adversary` — the generative :class:`FuzzAdversary`
  sampling per-round Byzantine behaviours from the seed;
* :mod:`repro.fuzz.protocols` — the target registry
  (:class:`ProtocolSpec`): how to run and judge each protocol;
* :mod:`repro.fuzz.oracles` — the paper's predicates as violation
  detectors, plus the cross-protocol differential oracle;
* :mod:`repro.fuzz.campaign` — the deterministic campaign driver and
  the single :func:`replay_case` path;
* :mod:`repro.fuzz.shrink` — greedy counterexample minimization
  (rounds → faulty set → per-message mask);
* :mod:`repro.fuzz.case` — the replayable :class:`FuzzCase` file
  format and the ``tests/fuzz/corpus/`` regression corpus.

See docs/fuzzing.md for the determinism contract and the triage
workflow.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "adversary": ("FuzzAdversary",),
    "campaign": (
        "CampaignReport",
        "CampaignSettings",
        "ReplayOutcome",
        "replay_case",
        "run_campaign",
    ),
    "case": ("FuzzCase", "load_case", "load_corpus"),
    "oracles": ("ORACLES", "STATE_ORACLES", "differential_mismatches"),
    "protocols": (
        "CATALOG_PROTOCOLS",
        "DEFAULT_PROTOCOLS",
        "ProtocolSpec",
        "get_spec",
        "protocol_names",
        "register",
        "unregister",
    ),
    "shrink": ("ShrinkResult", "shrink_case"),
})
