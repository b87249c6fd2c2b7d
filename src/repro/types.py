"""Shared type aliases and small value types used across the library.

The paper (Coan, PODC 1986) models a synchronous system of ``n``
processors, numbered ``1..n``, of which at most ``t`` may be faulty.
We keep the paper's 1-based processor numbering throughout the public
API so that code can be read side by side with the paper; ranges over
processors are always ``range(1, n + 1)``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, ClassVar, Dict, FrozenSet, Hashable, Tuple

from repro.errors import SystemConfigError

# A processor identifier.  The paper numbers processors 1..n.
ProcessId = int

# A round number.  Rounds are 1-based: the first round of a protocol is
# round 1, matching the paper.  Round 0 denotes "before the protocol
# starts" where that distinction matters (e.g. initial states).
Round = int

# An input/decision value.  The paper only requires a finite set V of
# legal inputs; we require hashability so values can be counted, used as
# dictionary keys, and compared for equality in vote tallies.
Value = Hashable

#: Tag -> the sentinel it names.  A sentinel registers
#: itself when the module that defines it creates it.
SENTINELS: Dict[str, "Sentinel"] = {}


class Sentinel:
    """A unique named marker: one instance per subclass, compared by ``is``.

    A subclass states its ``NAME`` (its repr) and its ``TAG`` (how a
    fuzz case file writes it: ``{"$": TAG}``, :mod:`repro.fuzz.case`).
    Calling the class again returns the one instance, so it pickles
    back to itself; it is hashable, so it can appear inside message
    tuples.
    """

    NAME: str
    TAG: str

    def __new__(cls) -> "Sentinel":
        instance = SENTINELS.get(cls.TAG)
        if instance is None:
            instance = SENTINELS[cls.TAG] = super().__new__(cls)
        return instance

    def __repr__(self) -> str:
        return self.NAME

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickle back to the singleton, preserving ``is`` identity.
        return (type(self), ())


# The paper's "bottom" (no value / undecided / no input).  ``None`` is
# deliberately NOT used for this so that protocols may legitimately
# carry ``None`` payloads without colliding with "absent".
class _Bottom(Sentinel):
    """The unique "no value" marker (the paper's bottom element).

    Every module compares against :data:`BOTTOM` with ``is``.  Unlike
    the other sentinels it is falsy.
    """

    NAME, TAG = "BOTTOM", "bottom"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()


def is_bottom(value: Any) -> bool:
    """Return ``True`` if ``value`` is the bottom (absent) marker."""
    return value is BOTTOM


@functools.lru_cache()
def _process_ids(n: int) -> Tuple[ProcessId, ...]:
    """The ids ``1..n``: one shared tuple per ``n``, not one per access."""
    return tuple(range(1, n + 1))


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Static parameters of a synchronous system.

    Parameters
    ----------
    n:
        Total number of processors.
    t:
        Upper bound on the number of faulty processors the protocol
        must tolerate.
    """

    n: int
    t: int

    #: All processor ids, 1-based as in the paper: the one tuple shared
    #: by every config of this ``n``, set once when the config is made.
    #: An instance attribute, declared ``ClassVar`` only to keep it out
    #: of the fields, so equality, hash, repr and
    #: :func:`dataclasses.asdict` stay on ``(n, t)``.
    process_ids: ClassVar[Tuple[ProcessId, ...]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SystemConfigError(f"n must be positive, got {self.n}")
        if self.t < 0:
            raise SystemConfigError(f"t must be non-negative, got {self.t}")
        if self.t >= self.n:
            raise SystemConfigError(
                f"t must be smaller than n, got n={self.n}, t={self.t}"
            )
        object.__setattr__(self, "process_ids", _process_ids(self.n))

    def __reduce__(self) -> Tuple[type, Tuple[int, int]]:
        # Pickled, copied and deep-copied as its constructor call, so
        # the copy gets the shared id tuple of its own process.
        return SystemConfig, (self.n, self.t)

    def requires_byzantine_quorum(self) -> bool:
        """Whether ``n >= 3t + 1`` (the Byzantine agreement threshold)."""
        return self.n >= 3 * self.t + 1

    def requires_fast_quorum(self) -> bool:
        """Whether ``n >= 4t + 1`` (the fast avalanche-variant threshold)."""
        return self.n >= 4 * self.t + 1


# A set of faulty processors, as recorded in an execution tuple
# (k, F, I, M) from Section 3.1 of the paper.
FaultSet = FrozenSet[ProcessId]
