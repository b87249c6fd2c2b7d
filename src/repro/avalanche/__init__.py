"""Avalanche agreement (Section 4).

The paper's new agreement primitive and the building block of the
compact full-information protocol.  Correct processors must satisfy:

* **avalanche** — if any correct processor decides ``v`` in round
  ``r`` then all correct processors decide ``v`` by round ``r + 1``,
* **consensus** — if all correct processors start with input ``v``
  then all decide ``v`` by round 2,
* **plausibility** — any decided value was the input of some correct
  processor.

Executions need not terminate; processors may start with no input
(:data:`repro.types.BOTTOM`).  ``n >= 3t + 1`` is necessary and
sufficient; Protocol 2 achieves it.

* :mod:`repro.avalanche.protocol` — Protocol 2 as a reusable state
  machine (:class:`AvalancheInstance`) plus a standalone runtime
  process,
* :mod:`repro.avalanche.fast` — the ``n >= 4t + 1`` variant whose
  consensus condition closes in one round (used in Section 5.6 to
  shrink blocks by one round),
* :mod:`repro.avalanche.coding` — the null-message convention that
  caps each correct processor at 3 non-null messages per execution,
* :mod:`repro.avalanche.conditions` — executable checkers for the
  three conditions, used by tests and experiment E1.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "protocol": (
        "AvalancheInstance",
        "AvalancheProcess",
        "Thresholds",
        "avalanche_factory",
        "standard_thresholds",
    ),
    "fast": ("fast_thresholds",),
    "coding": ("NULL_MESSAGE", "NullEncoder", "is_null_message"),
    "conditions": (
        "check_avalanche_condition",
        "check_consensus_condition",
        "check_plausibility_condition",
    ),
})
