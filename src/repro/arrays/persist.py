"""Inert; deleted by the next `benchmark` PR (ROADMAP item 1(a)).

The cross-run disk cache that lived here is gone: the per-store memos
of :class:`repro.arrays.store.ArrayStore` already share what it shared.
Only the three names the frozen ``benchmarks/perf`` harness references
remain, and none of them does anything.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

#: A string that nothing reads.
CACHE_ENV = "REPRO_CACHE_DIR"


@contextlib.contextmanager
def using_cache(path: Any) -> Iterator[None]:
    """Inert; deleted by the next `benchmark` PR (ROADMAP item 1(a))."""
    yield None


def forget_caches() -> None:
    """Inert; deleted by the next `benchmark` PR (ROADMAP item 1(a))."""
