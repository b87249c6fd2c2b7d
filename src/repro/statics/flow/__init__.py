"""protoflow: interprocedural dataflow checks of canonical form.

The paper's canonical-form theorem is a claim about program *text*:
every protocol can be rewritten so its rounds are communication-closed
and its messages are small.  Closedness needs no static pass: the
lockstep engine calls each processor's ``outgoing`` once per round,
before any ``receive``, so every run is closed by construction.  The
passes in this subpackage check the rest statically, per protocol
class, and report findings through ``repro lint``:

* **COM** — message-size bounds: an abstract interpretation of each
  payload constructor infers a symbolic per-round bound (constant /
  linear / history) and cross-checks it against the module's declared
  ``MESSAGE_BOUNDS``.
* **TAINT** — Byzantine influence: every value originating from
  ``receive()`` is adversary-controllable and must pass a recognized
  sanitizer before reaching a decision or an outgoing payload.

See ``docs/statics.md`` for the rule tables.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "passes": ("FlowAnalysis", "analyze_index"),
})
