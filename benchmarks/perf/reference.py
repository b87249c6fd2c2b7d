"""A fixed reference kernel: how fast is the box right now?

The reference box (2 vCPUs on a shared host) moves between a fast
state and states 20-80% slower, for seconds to minutes at a time; wall
and CPU time rise together, so it is the host, not the program.  A
slow episode longer than a run shifts every timing in it, whatever
estimator the run uses (README, "Steady numbers", has the
measurements).

So every child times this kernel next to its passes, and ``run.py``
reports times in *reference seconds*: measured time scaled by
``REFERENCE_S`` over the kernel's time in the same process.  On an
idle reference box the two units coincide; elsewhere the scale moves
with the host and the program's own cost stays put.

The kernel shares no code with ``repro`` — a faster program must not
speed up its own ruler.  It mixes what the workloads mix: dict and
tuple churn, a recursive walk over nested tuples, numpy gathers.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, List

import numpy as np

#: The kernel's duration on the reference box in its fast state.
REFERENCE_S = 0.021

#: A sample counts towards the steady value if it is among this share
#: of fastest samples.
STEADY_SHARE = 0.25


def steady(samples: List[float]) -> float:
    """Mean of the fastest quarter of ``samples``.

    Slow episodes cover a varying part of a run and the median moves
    with that part; the fast end of the distribution does not.
    """
    ordered = sorted(samples)
    return statistics.fmean(
        ordered[:max(1, round(len(ordered) * STEADY_SHARE))]
    )


def scale(readings: List[float]) -> float:
    """Reference seconds per measured second, from kernel ``readings``."""
    return REFERENCE_S / steady(readings)


_SIZE = 400_000
_VALUES = np.arange(_SIZE, dtype=np.int32)
_INDEX = (_VALUES * 7919) % _SIZE
# The gathers write into these: a large temporary per step would make
# the kernel's speed depend on the allocator's state (glibc serves
# megabyte blocks by mmap until the process has freed one), that is,
# on what the workload did before.
_GATHERED = (np.empty_like(_VALUES), np.empty_like(_VALUES))


def _tree(depth: int) -> Any:
    return tuple(_tree(depth - 1) for _ in range(7)) if depth else depth


def _walk(node: Any) -> int:
    if not isinstance(node, tuple):
        return 1
    return sum(_walk(child) for child in node)


def reading() -> float:
    """Seconds the kernel takes now: the faster of two runs.

    The first run also refills the caches the pass before it evicted,
    so that the program's memory footprint does not bend its ruler.
    """
    return min(_kernel(), _kernel())


def _kernel() -> float:
    started = time.perf_counter()
    table: dict = {}
    for i in range(30_000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + len(str(i))
    total = 0
    for key, value in table.items():
        total += hash(key) ^ value
    _walk(_tree(4))
    source = _VALUES
    for step in range(6):
        gathered = _GATHERED[step % 2]
        np.take(source, _INDEX, out=gathered)
        np.multiply(gathered, 3, out=gathered)
        np.add(gathered, 1, out=gathered)
        np.remainder(gathered, _SIZE, out=gathered)
        source = gathered
    total += int(source.sum())
    return time.perf_counter() - started
