"""A plain-tuple model of the EIG sweep's distinct-label chain tables.

Written from the definition, not from ``repro.arrays.flat``: level
``l`` lists every length-``l`` chain of distinct labels from ``1..n``
extension-major — for each ``e``, for each level-``l - 1`` chain ``s``
in its order, the chain ``(q,) + s`` where ``q`` is the ``e``-th
smallest label not in ``s`` — each chain a tuple in a dict that gives
its index.  A chain's ``pick`` is ``index(chain[:-1]) * n + chain[-1]
- 1``, looked up by tuple.  Tests hold
:class:`repro.arrays.flat.ChainTopology` to these columns.
"""

import numpy as np


def chain_levels(n, depth):
    """Every level's chains in order, level 0's empty chain first."""
    levels = [[()]]
    for level in range(1, depth + 1):
        previous = levels[-1]
        free = [
            [q for q in range(1, n + 1) if q not in chain] for chain in previous
        ]
        levels.append([
            (free[j][e],) + chain
            for e in range(n - level + 1)
            for j, chain in enumerate(previous)
        ])
    return levels


def chain_tables(n, depth):
    """``(pick, level_sizes)`` for ``(n, depth)``: one int64 column per
    level, and the chain count of every level, the empty chain's
    included."""
    levels = chain_levels(n, depth)
    picks = []
    for previous, chains in zip(levels, levels[1:]):
        index_of = {chain: index for index, chain in enumerate(previous)}
        picks.append(np.asarray(
            [index_of[chain[:-1]] * n + chain[-1] - 1 for chain in chains],
            dtype=np.int64,
        ))
    return picks, [len(chains) for chains in levels]
