"""The paper's formal core.

* :mod:`repro.core.rounds` — the block/prior/phase/simul round
  arithmetic of Section 5.1 (Table 1),
* :mod:`repro.core.automaton` — protocols as synchronous systems of
  automata (Section 3.1),
* :mod:`repro.core.predicates` — correctness predicates and the
  standard instances (agreement, validity, approximate agreement),
* :mod:`repro.core.simulation` — the simulation relation and its
  runtime checker under faults (Theorem 9 made executable),
* :mod:`repro.core.transform` — the headline canonical-form
  transformation: any consensus protocol in, a communication-efficient
  protocol out.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "rounds": ("BlockSchedule", "block", "phase", "prior", "simul"),
    "automaton": ("AutomatonProtocol",),
    "predicates": (
        "CorrectnessPredicate",
        "agreement_predicate",
        "approximate_agreement_predicate",
        "byzantine_agreement_predicate",
        "validity_predicate",
    ),
})
