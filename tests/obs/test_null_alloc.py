"""The null-observer fast path allocates nothing in ``repro.obs``.

With no active observer, hot paths read ``repro.obs.core.ACTIVE``
once, see ``None`` and skip all instrumentation — including the new
tracing branch in envelope delivery.  This pins the contract with
``tracemalloc``: a serial avalanche sweep attributes zero allocations
to any ``repro/obs`` frame.
"""

import tracemalloc

import repro.obs.core as core
from tests.obs.test_byte_identity import small_sweep


class TestNullObserverAllocations:
    def test_serial_sweep_allocates_nothing_in_obs(self):
        assert core.ACTIVE is None
        # warm imports and caches outside the traced window so only
        # steady-state allocations are attributed
        small_sweep(workers=1)
        obs_filter = tracemalloc.Filter(True, "*/repro/obs/*")
        tracemalloc.start(1)
        try:
            small_sweep(workers=1)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces([obs_filter]).statistics("lineno")
        assert stats == [], [
            f"{stat.traceback} allocated {stat.size} bytes"
            for stat in stats
        ]
