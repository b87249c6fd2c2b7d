"""Synchronous round-based execution substrate.

The paper's system model (Section 2): ``n`` processors over a fully
connected, reliable network; computation proceeds in rounds, and in
each round correct processors *send*, then *receive*, then make a
*local state change*.  Failed processors send arbitrary messages.

This package is that model, executable:

* :mod:`repro.runtime.node` — the :class:`Process` base class every
  protocol implements (one ``outgoing``/``receive`` pair per round),
* :mod:`repro.runtime.network` — runs lockstep rounds and delivers
  messages, letting an adversary speak for the faulty processors (with
  a full view of the round's correct traffic, i.e. a rushing
  adversary),
* :mod:`repro.runtime.engine` — drives executions to completion and
  returns a structured result,
* :mod:`repro.runtime.metrics` — exact per-round message/bit meters,
* :mod:`repro.runtime.trace` — optional full message traces,
* :mod:`repro.runtime.rng` — deterministic seeded randomness.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "message": ("Envelope",),
    "metrics": ("MessageMetrics", "RoundUsage"),
    "node": ("Process", "broadcast"),
    "network": ("SynchronousNetwork",),
    "engine": ("ExecutionResult", "run_protocol"),
    "trace": ("ExecutionTrace",),
    "rng": ("derive_rng", "make_rng"),
    "crypto": ("Signature", "SignatureOracle"),
    "render": (
        "render_decisions",
        "render_execution",
        "render_round",
        "summarise_payload",
    ),
})
