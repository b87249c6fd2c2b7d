"""The compact full-information protocol (Section 5).

The communication-efficient canonical form: a protocol that simulates
the full-information protocol while exchanging only *compressed*
states (``CORE``), expanded on receipt by per-block expansion
functions built from avalanche agreement outcomes.

* :mod:`repro.compact.expansion` — the expansion functions
  ``phi_{b,r,p}`` of Section 5.3, with the OUT tables they are built
  from,
* :mod:`repro.compact.subprotocol` — the Section 5.2 subprotocol
  machinery: a per-block batch of ``n`` avalanche agreement instances
  with null-message coding on the wire,
* :mod:`repro.compact.payload` — the ``(x + 1)``-tuple round messages
  and their exact bit sizer,
* :mod:`repro.compact.driver` — the block loop, written once for every
  fault model,
* :mod:`repro.compact.protocol` — Protocol 3 itself: the driver with
  avalanche-agreed references,
* :mod:`repro.compact.byzantine_agreement` — Corollary 10: Byzantine
  agreement in ``(1 + eps)(t + 1)`` rounds with polynomial
  communication,
* :mod:`repro.compact.lazy_decision` — the same, deciding on the
  compressed state in polynomial space,
* :mod:`repro.compact.crash_variant` — the benign-fault extension with
  *no* round overhead (Section 1's claim, experiment E8),
* :mod:`repro.compact.authenticated_variant` — the same zero overhead
  under Byzantine faults, given signatures.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "expansion": ("ExpansionState",),
    "subprotocol": ("AgreementBatch",),
    "payload": ("CompactPayload", "compact_sizer"),
    "protocol": ("CompactProcess", "compact_factory"),
    "byzantine_agreement": (
        "compact_ba_factory",
        "compact_ba_rounds",
        "run_compact_byzantine_agreement",
    ),
    "crash_variant": (
        "CrashCompactProcess",
        "crash_compact_factory",
        "flooding_decision_rule",
    ),
    "lazy_decision": (
        "full_state_leaf",
        "lazy_compact_ba_factory",
        "lazy_eig_decision",
    ),
    "authenticated_variant": ("AuthCompactProcess", "auth_compact_ba_factory"),
})
