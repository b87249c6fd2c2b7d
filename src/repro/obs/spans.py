"""Hierarchical timing spans, aggregated into a per-run profile.

``with observer.span("eig.decision"):`` times a region with
:func:`time.perf_counter` and folds the duration into a
:class:`SpanProfile` under the span's *path* — the ``/``-joined chain
of the currently open spans, so a ``sweep.cell`` opened inside
``sweep.execute`` aggregates under ``sweep.execute/sweep.cell``.
The profile keeps count / total / max per path, not individual
intervals, so recording cost is O(1) per span and the profile stays
small no matter how hot the instrumented region is.

Spans read the wall clock and are therefore **explicitly
nondeterministic**: they never enter the deterministic section of an
event log (records derived from them carry ``"nondeterministic":
true``) and never influence protocol behaviour.  This module is the
single place in the determinism-scanned packages allowed to import
:mod:`time` (``CLOCK_MODULES`` in :mod:`repro.statics.runner`), and
the two-process replay (``tests/integration/test_determinism.py``)
compares every record but those flagged records.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

#: ``path -> (count, total_s, max_s)`` — the snapshot/diff form.
ProfileSnapshot = Dict[str, Tuple[int, float, float]]


class _SpanStats:
    """Aggregate for one span path."""

    __slots__ = ("count", "total_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, duration: float) -> None:
        self.count += 1
        self.total_s += duration
        if duration > self.max_s:
            self.max_s = duration


class SpanProfile:
    """Count / total / max wall seconds per span path."""

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: Dict[str, _SpanStats] = {}

    def record(self, path: str, duration: float) -> None:
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = _SpanStats()
        stats.record(duration)

    def snapshot(self) -> ProfileSnapshot:
        """The current aggregates, copied (safe to diff against later)."""
        return {
            path: (stats.count, stats.total_s, stats.max_s)
            for path, stats in self._stats.items()
        }

    def since(self, mark: ProfileSnapshot) -> ProfileSnapshot:
        """What accumulated after ``mark`` was taken.

        ``max_s`` cannot be diffed (it is not additive), so the
        current maximum is reported for any path that grew.
        """
        delta: ProfileSnapshot = {}
        for path, (count, total_s, max_s) in self.snapshot().items():
            base = mark.get(path)
            if base is not None:
                count -= base[0]
                total_s -= base[1]
            if count > 0:
                delta[path] = (count, total_s, max_s)
        return delta

    def as_dict(self, digits: int = 6) -> Dict[str, Dict[str, Any]]:
        """JSON-ready form, paths sorted, seconds rounded."""
        return profile_dict(self.snapshot(), digits=digits)


def profile_dict(
    snapshot: ProfileSnapshot, digits: int = 6
) -> Dict[str, Dict[str, Any]]:
    """Render a snapshot as the JSON shape ``profile`` records embed."""
    return {
        path: {
            "count": count,
            "total_s": round(total_s, digits),
            "max_s": round(max_s, digits),
        }
        for path, (count, total_s, max_s) in sorted(snapshot.items())
    }


class NullSpan:
    """The no-op context manager returned when no observer is active."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


#: Shared singleton — entering it costs two empty method calls.
NULL_SPAN = NullSpan()


class SpanHandle:
    """One live span: pushes its path on enter, records on exit."""

    __slots__ = ("_profile", "_stack", "_name", "_path", "_start")

    def __init__(
        self, profile: SpanProfile, stack: List[str], name: str
    ) -> None:
        self._profile = profile
        self._stack = stack
        self._name = name
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "SpanHandle":
        parent = self._stack[-1] if self._stack else None
        self._path = f"{parent}/{self._name}" if parent else self._name
        self._stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        duration = time.perf_counter() - self._start
        self._stack.pop()
        self._profile.record(self._path, duration)


def now() -> float:
    """The monotonic clock spans use (exposed for executor timing)."""
    return time.perf_counter()
