"""protoflow: interprocedural dataflow checks of canonical form.

The paper's canonical-form theorem is a claim about program *text*:
every protocol can be rewritten so its rounds are communication-closed
and its messages are small.  Neither needs a static pass: the lockstep
engine calls each processor's ``outgoing`` once per round, before any
``receive``, so every run is closed by construction, and every fuzzed
execution is held to its protocol's closed-form message budget
(:func:`repro.fuzz.oracles.check_budget`), measured by its own meter.
What this subpackage checks statically, per protocol class, and
reports through ``repro lint`` is the rest:

* **TAINT** — Byzantine influence: every value originating from
  ``receive()`` is adversary-controllable and must pass a recognized
  sanitizer before reaching a decision or an outgoing payload.

See ``docs/statics.md`` for the rule tables.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "passes": ("FlowAnalysis", "analyze_index"),
})
