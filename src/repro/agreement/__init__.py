"""Agreement protocols: the paper's comparators and applications.

* :mod:`repro.agreement.eig_agreement` — the exponential-communication
  ``t + 1``-round Byzantine agreement protocol (Lamport et al. [13]),
  both as runnable processes and as the automaton the canonical-form
  transformation consumes,
* :mod:`repro.agreement.srikanth_toueg` — the witnessed-broadcast
  simulation of authenticated protocols [18] and the Dolev–Strong-
  style polynomial agreement built on it (the paper's round-count
  comparator),
* :mod:`repro.agreement.phase_king` — Phase King (``n >= 3t + 1``,
  3 rounds/phase) and Phase Queen (``n >= 4t + 1``, 2 rounds/phase):
  simple polynomial-communication baselines,
* :mod:`repro.agreement.ben_or` — randomized binary agreement; the
  vote/adopt/decide skeleton avalanche agreement borrows from,
* :mod:`repro.agreement.turpin_coan` — the multivalued-to-binary
  reduction [19] the paper cites as an orthogonal optimisation,
* :mod:`repro.agreement.crusader` — Dolev's crusader agreement [5],
  discussed in Section 4's comparison with avalanche agreement,
* :mod:`repro.agreement.weak` — Lamport's weak agreement [12],
* :mod:`repro.agreement.approximate` — synchronous approximate
  agreement (the paper's "greater applicability" example, Fekete [9]),
* :mod:`repro.agreement.firing_squad` — the Byzantine firing squad
  problem named in the paper's introduction,
* :mod:`repro.agreement.dolev_strong` — authenticated agreement over
  the ideal signature oracle (the [18] context),
* :mod:`repro.agreement.early_stopping` — crash consensus in
  ``min(f + 2, t + 1)`` rounds,
* :mod:`repro.agreement.lower_bounds` — the known bounds the paper
  measures itself against.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "eig_agreement": (
        "ExponentialAgreementAutomaton",
        "eig_agreement_factory",
        "run_eig_agreement",
    ),
    "phase_king": (
        "PhaseKingProcess",
        "PhaseQueenProcess",
        "phase_king_factory",
        "phase_king_rounds",
        "phase_queen_factory",
        "phase_queen_rounds",
    ),
    "srikanth_toueg": (
        "STAgreementProcess",
        "WitnessedBroadcast",
        "st_agreement_factory",
        "st_agreement_rounds",
    ),
    "ben_or": ("BenOrProcess", "ben_or_factory"),
    "turpin_coan": ("TurpinCoanProcess", "turpin_coan_factory"),
    "crusader": ("CrusaderProcess", "SENDER_FAULTY", "crusader_factory"),
    "weak": ("WeakAgreementProcess", "weak_agreement_factory"),
    "approximate": (
        "ApproximateAgreementAutomaton",
        "ApproximateProcess",
        "approximate_factory",
    ),
    "dolev_strong": (
        "DolevStrongProcess",
        "dolev_strong_factory",
        "dolev_strong_rounds",
    ),
    "early_stopping": (
        "EarlyStoppingCrashProcess",
        "early_stopping_factory",
    ),
    "firing_squad": (
        "FiringSquadProcess",
        "fire_deadline",
        "firing_squad_factory",
    ),
    "lower_bounds": ("min_rounds_for_agreement",),
})
