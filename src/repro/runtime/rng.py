"""Deterministic randomness.

Every execution in this library is replayable: all random choices
(adversary behaviour, Ben-Or's coin flips) flow from a single seed.
Substreams are derived with :func:`derive_rng` so that, e.g., the
adversary's stream is independent of a protocol's stream yet both are
fixed by the top-level seed.

numpy (and, for :func:`derive_rng`, hashlib) is imported on the first
call, not with this module, so a run that draws nothing never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

Seedish = Union[int, "np.random.Generator", None]


def make_rng(seed: Seedish = None) -> np.random.Generator:
    """Return a generator for ``seed``.

    Accepts an int seed, an existing generator (returned unchanged), or
    ``None`` (seed 0, so that "no seed" still means deterministic — an
    intentional departure from numpy's default, because replayability
    is a core requirement here).
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = 0
    return np.random.default_rng(seed)


def derive_rng(seed: Seedish, *keys: object) -> np.random.Generator:
    """Derive an independent substream from ``seed`` and a key path.

    The same ``(seed, keys)`` always yields the same stream; distinct
    key paths yield (cryptographically) independent streams.  When
    given a generator rather than an int, a stable base is first drawn
    from it — callers who need exact replay should pass ints.
    """
    import hashlib

    import numpy as np

    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**63 - 1))
    else:
        base = 0 if seed is None else int(seed)
    digest = hashlib.sha256(
        ("/".join([str(base)] + [repr(key) for key in keys])).encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))
