"""protoflow: interprocedural dataflow certification of canonical form.

The paper's canonical-form theorem is a claim about program *text*:
every protocol can be rewritten so its rounds are communication-closed
and its messages are small.  The passes in this subpackage check those
properties statically, per protocol class, and emit a machine-readable
certificate for each one:

* **FLOW** — communication-closedness: values received in round *r*
  only reach sends in rounds >= *r*, the send phase is a pure function
  of the pre-round state, and no raw per-round message map is squirreled
  away for later rounds.
* **COM** — message-size bounds: an abstract interpretation of each
  payload constructor infers a symbolic per-round bound (constant /
  linear / history) and cross-checks it against the module's declared
  ``MESSAGE_BOUNDS``.
* **TAINT** — Byzantine influence: every value originating from
  ``receive()`` is adversary-controllable and must pass a recognized
  sanitizer before reaching a decision or an outgoing payload.

See ``docs/statics.md`` for the rule tables and the certificate
format consumed by the closedness cross-check.
"""

from __future__ import annotations

from repro.statics.flow.certificates import certify_tree
from repro.statics.flow.passes import FlowAnalysis, analyze_tree, run_flow_pass

__all__ = [
    "FlowAnalysis",
    "analyze_tree",
    "certify_tree",
    "run_flow_pass",
]
