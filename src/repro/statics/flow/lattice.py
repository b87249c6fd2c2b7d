"""The abstract domain protoflow's taint pass interprets over.

:class:`Taint` is a tiny totally-ordered join-semilattice; ``join`` is
``max``.  It says how much of a value an adversary controls: ``RAW``
values came from ``receive()`` and passed no filter; ``FILTERED``
values passed a recognized sanitizer (or a threshold guard); ``CLEAN``
values never touched the network.  Only ``RAW`` is flagged at the
decision / payload sinks — a filtered value is by definition one the
protocol's fault-tolerance argument accounts for.
"""

from __future__ import annotations

import enum


class Taint(enum.IntEnum):
    """Adversary influence on a value; ``join`` is ``max``."""

    CLEAN = 0
    FILTERED = 1
    RAW = 2


def join_taint(*values: Taint) -> Taint:
    """The least upper bound (most adversarial) of ``values``."""
    result = Taint.CLEAN
    for value in values:
        if value > result:
            result = value
    return result


def demote(value: Taint) -> Taint:
    """``RAW`` becomes ``FILTERED`` (a guard vouched for it)."""
    return Taint.FILTERED if value is Taint.RAW else value
