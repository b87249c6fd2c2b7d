"""The fast avalanche variant (``n >= 4t + 1``).

Section 4 of the paper: strengthening the consensus condition to
require a decision in *one* round rather than two is impossible for
``n <= 4t`` and "easy to solve using a simple variant of Protocol 2"
for ``n >= 4t + 1`` (details omitted there).  Section 5.6 uses this
variant to shave one round off every block of the compact protocol.

**Reconstruction.**  The variant below keeps Protocol 2's structure
and changes only the quorums; each choice is forced by the conditions:

* ``round1_decide = n - t`` — a unanimous correct input gives every
  correct processor at least ``n - t`` round-1 votes, so deciding at
  that quorum closes the strengthened consensus condition in round 1;
* ``round1_adopt = n - 2t`` — a round-1 decision for ``v`` implies at
  least ``n - 2t`` *correct* round-1 votes for ``v``, so every correct
  processor sees at least ``n - 2t`` votes for ``v`` and at most
  ``2t < n - 2t`` for anything else (using ``n > 4t``); all therefore
  adopt ``v``, and the avalanche completes one round later;
* ``decide = n - t`` in later rounds — deciding ``v`` then implies at
  least ``n - 2t`` correct voters for ``v`` this round, which (again
  by ``n > 4t``) out-votes everything else at every correct processor,
  forcing system-wide adoption and a decision everywhere in the next
  round; it also makes a second decided value impossible, since a
  competing value can muster at most ``2t < n - t`` votes once ``v``
  holds a correct majority;
* ``later_adopt = t + 1`` — unchanged from Protocol 2 (one correct
  supporter suffices for plausibility).

At the boundary ``n = 4t + 1`` these read ``2t + 1`` / ``3t + 1``,
i.e. Protocol 2 with the decision quorum raised by ``t`` — exactly a
"simple variant".  The property-based tests in
``tests/avalanche/test_fast.py`` check all three conditions (with the
one-round consensus strengthening) against adversarial executions.
"""

from __future__ import annotations

from repro.avalanche.protocol import Thresholds
from repro.errors import ConfigurationError
from repro.types import SystemConfig


def fast_thresholds(config: SystemConfig) -> Thresholds:
    """Quorums for the one-round-consensus variant (``n >= 4t + 1``)."""
    if not config.requires_fast_quorum():
        raise ConfigurationError(
            f"fast avalanche needs n >= 4t+1; got n={config.n}, t={config.t}"
        )
    return Thresholds(
        round1_adopt=config.n - 2 * config.t,
        later_adopt=config.t + 1,
        decide=config.n - config.t,
        round1_decide=config.n - config.t,
    )
