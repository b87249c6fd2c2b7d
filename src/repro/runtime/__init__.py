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

from repro.runtime.message import Envelope
from repro.runtime.metrics import MessageMetrics, RoundUsage
from repro.runtime.node import Process, broadcast
from repro.runtime.network import SynchronousNetwork
from repro.runtime.engine import ExecutionResult, run_protocol
from repro.runtime.trace import ExecutionTrace
from repro.runtime.rng import derive_rng, make_rng
from repro.runtime.crypto import Signature, SignatureOracle
from repro.runtime.render import (
    render_decisions,
    render_execution,
    render_round,
    summarise_payload,
)

__all__ = [
    "Envelope",
    "MessageMetrics",
    "RoundUsage",
    "Process",
    "broadcast",
    "SynchronousNetwork",
    "ExecutionResult",
    "run_protocol",
    "ExecutionTrace",
    "derive_rng",
    "make_rng",
    "Signature",
    "SignatureOracle",
    "render_decisions",
    "render_execution",
    "render_round",
    "summarise_payload",
]
