"""A plain-tuple model of the EIG sweep's distinct-label chain tables.

Written from the definition, not from ``repro.arrays.flat``: level
``l`` lists every length-``l`` chain of distinct labels from ``1..n``
in prefix-major order, each chain a tuple in a dict that gives its
index.  A chain's ``pick`` is ``index(chain[:-1]) * n + chain[-1] - 1``
and its ``suffix`` is ``index(chain[1:])``, both looked up by tuple.
Tests hold :class:`repro.arrays.flat.ChainTopology` to these columns.
"""

import numpy as np


def chain_tables(n, depth):
    """``(pick, suffix, level_sizes)`` for ``(n, depth)``: one int64
    column per level, and the chain count of every level, level 0's
    empty chain included."""
    picks, suffixes, level_sizes = [], [], [1]
    previous = {(): 0}
    for _ in range(depth):
        index_of = {}
        pick, suffix = [], []
        for prior_chain, prior_index in previous.items():
            for label in range(1, n + 1):
                if label in prior_chain:
                    continue
                chain = prior_chain + (label,)
                index_of[chain] = len(pick)
                pick.append(prior_index * n + label - 1)
                suffix.append(previous[chain[1:]])
        picks.append(np.asarray(pick, dtype=np.int64))
        suffixes.append(np.asarray(suffix, dtype=np.int64))
        level_sizes.append(len(pick))
        previous = index_of
    return picks, suffixes, level_sizes
