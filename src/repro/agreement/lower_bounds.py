"""Known lower bounds the paper measures itself against.

* ``t + 1`` rounds for deterministic Byzantine agreement (Fischer and
  Lynch [10]) — the bound Corollary 10 approaches within a factor
  arbitrarily close to 1,
* ``3t + 1`` processors for Byzantine agreement and for avalanche
  agreement (Section 4: "straightforward to use standard techniques
  like those of Fischer, Lynch, and Merritt [11]"),
* ``4t + 1`` processors for the one-round-consensus avalanche variant
  (Section 4: "if ``n <= 4t`` there is no solution to this variant").

These are formulas, not proofs.  The two processor bounds are where
the system enforces them, :meth:`repro.types.SystemConfig.requires_byzantine_quorum`
and :meth:`~repro.types.SystemConfig.requires_fast_quorum`; this module
states the round bound that the comparison tables measure protocols
against.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def min_rounds_for_agreement(t: int) -> int:
    """Fischer–Lynch: ``t + 1`` rounds in the worst case."""
    if t < 0:
        raise ConfigurationError(f"t must be non-negative, got {t}")
    return t + 1
