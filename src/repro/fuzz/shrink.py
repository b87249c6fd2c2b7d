"""Counterexample shrinking: minimize a failing case, keep it failing.

Greedy, deterministic descent along three axes, in the order that
empirically removes the most noise first:

1. **rounds** — for full-round protocols, cut the execution shorter
   while the failure persists (a 3-round counterexample reads in one
   sitting; a 9-round one does not);
2. **faulty set** — drop faulty processors one at a time (fewer
   attackers = smaller attack surface to stare at);
3. **per-message mask** — force individual ``(round, sender)`` slots
   to silence; every slot that can be silenced without losing the
   failure is one fewer message to consider when triaging.

Each candidate is judged by replaying it (the adversary re-derives
its whole attack from the case's seed, and the mask is engineered to
not shift RNG consumption — see :mod:`repro.fuzz.adversary`), so a
shrunk case is *by construction* still failing under the exact replay
path the corpus uses.  The loop re-runs all axes until a full pass
makes no progress or the attempt budget runs out; either way the
result is the last *verified failing* candidate, never a guess.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.fuzz.case import FuzzCase
from repro.fuzz.protocols import get_spec
from repro.types import SystemConfig

#: Replay budget: the shrinker never runs more executions than this.
DEFAULT_MAX_ATTEMPTS = 200

#: Mask exploration never looks past this many rounds (terminating
#: protocols can have large round caps; masking deep rounds of an
#: already-short failure is wasted budget).
_MASK_ROUND_LIMIT = 12

FailurePredicate = Callable[[FuzzCase], bool]


@dataclasses.dataclass(frozen=True)
class ShrinkResult:
    """The minimized case plus provenance."""

    case: FuzzCase
    original: FuzzCase
    attempts: int


def _default_fails(case: FuzzCase) -> bool:
    from repro.fuzz.campaign import replay_case

    return replay_case(case).failed


def shrink_case(
    case: FuzzCase,
    fails: Optional[FailurePredicate] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ShrinkResult:
    """Minimize ``case`` under ``fails`` (default: replay + oracles).

    ``case`` itself must fail; otherwise the original is returned
    untouched with zero attempts (nothing to shrink — campaigns only
    hand verified failures here, but a caller replaying a stale file
    should get a no-op, not an inverted search).
    """
    judge = fails if fails is not None else _default_fails
    spec = get_spec(case.protocol)
    config = SystemConfig(n=case.n, t=case.t)

    # Materialize the rounds axis: campaign cases carry rounds=None
    # ("the spec default"), which shrinking must turn into a concrete
    # number before it can cut it down.
    current = case
    if current.rounds is None and spec.default_rounds(config) is not None:
        current = current.with_(rounds=spec.default_rounds(config))

    attempts = 0
    if not judge(current):
        return ShrinkResult(case=case, original=case, attempts=1)

    def try_candidate(candidate: FuzzCase) -> bool:
        nonlocal attempts, current
        if attempts >= max_attempts:
            return False
        attempts += 1
        if judge(candidate):
            current = candidate.with_(violations=current.violations)
            return True
        return False

    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False

        # Axis 1: fewer rounds.
        while (
            current.rounds is not None
            and current.rounds > 1
            and try_candidate(current.with_(rounds=current.rounds - 1))
        ):
            progressed = True

        # Axis 2: smaller fault set.
        for process_id in list(current.faulty):
            smaller = tuple(
                pid for pid in current.faulty if pid != process_id
            )
            if try_candidate(current.with_(faulty=smaller)):
                progressed = True

        # Axis 3: silence individual messages.
        round_bound = current.rounds
        if round_bound is None:
            round_bound = spec.round_cap(config)
        round_bound = min(round_bound, _MASK_ROUND_LIMIT)
        for round_number in range(1, round_bound + 1):
            for sender in current.faulty:
                if (round_number, sender) in current.mask:
                    continue
                masked = current.mask + ((round_number, sender),)
                if try_candidate(current.with_(mask=masked)):
                    progressed = True

    final = current.with_(note=_provenance_note(case, attempts))
    return ShrinkResult(case=final, original=case, attempts=attempts)


def _provenance_note(original: FuzzCase, attempts: int) -> str:
    parts = [f"shrunk from digest {original.digest()} in {attempts} replays"]
    if original.note:
        parts.append(original.note)
    return "; ".join(parts)


__all__ = ["DEFAULT_MAX_ATTEMPTS", "FailurePredicate", "ShrinkResult", "shrink_case"]
