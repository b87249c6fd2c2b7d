"""The full-information protocol (Protocol 1) and its decision rules.

In the full-information protocol each processor at each round
broadcasts its entire state, receives one message from each processor,
and forms its new state as the ordered collection of messages
received.  After ``r`` rounds a state is a depth-``r`` value array —
exponentially large, which is exactly the cost the compact protocol
removes.

* :mod:`repro.fullinfo.protocol` — Protocol 1 on the runtime, its
  automaton form, and Theorem 2's recursive reconstruction ``f_p``
  (any protocol's state from a full-information state),
* :mod:`repro.fullinfo.gate` — the canonical-or-reject receive gate
  every value-array consumer shares,
* :mod:`repro.fullinfo.decision` — the classic distinct-relay-chain
  Byzantine decision rule that turns ``t + 1`` rounds of full
  information into Byzantine agreement for ``n > 3t``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "protocol": (
        "DerivedDecisionRule",
        "FullInformationAutomaton",
        "FullInformationProcess",
        "full_information_factory",
        "reconstruct_state",
    ),
    "gate": ("ReceiveGate",),
    "decision": ("eig_byzantine_decision",),
    "interactive": (
        "interactive_consistency_decision",
        "make_interactive_consistency_rule",
    ),
})
