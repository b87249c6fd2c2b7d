"""The full-information protocol (Protocol 1) and its decision rules.

In the full-information protocol each processor at each round
broadcasts its entire state, receives one message from each processor,
and forms its new state as the ordered collection of messages
received.  After ``r`` rounds a state is a depth-``r`` value array —
exponentially large, which is exactly the cost the compact protocol
removes.

* :mod:`repro.fullinfo.protocol` — Protocol 1 on the runtime, its
  automaton form, and the canonical-or-reject receive gate every
  value-array consumer shares,
* :mod:`repro.fullinfo.eig` — the exponential-information-gathering
  tree view of a full-information state,
* :mod:`repro.fullinfo.decision` — Theorem 2's recursive
  reconstruction ``f_p`` (any protocol's state from a full-information
  state) and the classic distinct-relay-chain Byzantine decision rule
  that turns ``t + 1`` rounds of full information into Byzantine
  agreement for ``n > 3t``.
"""

from repro.fullinfo.protocol import (
    FullInformationAutomaton,
    FullInformationProcess,
    ReceiveGate,
    full_information_factory,
)
from repro.fullinfo.eig import EIGView
from repro.fullinfo.decision import (
    DerivedDecisionRule,
    eig_byzantine_decision,
    reconstruct_state,
)
from repro.fullinfo.interactive import (
    interactive_consistency_decision,
    make_interactive_consistency_rule,
)

__all__ = [
    "FullInformationAutomaton",
    "FullInformationProcess",
    "ReceiveGate",
    "full_information_factory",
    "EIGView",
    "DerivedDecisionRule",
    "eig_byzantine_decision",
    "reconstruct_state",
    "interactive_consistency_decision",
    "make_interactive_consistency_rule",
]
