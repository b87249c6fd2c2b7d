"""Flat integer tables over the interned DAG, for the EIG sweep.

The hash-consing store (:mod:`repro.arrays.store`) collapses the
exponential full-information state into a DAG of canonical nodes; a
node's own facts (its size, whether its leaves are legal) live in the
store's dictionary memos.  The one numeric job that is large is the
EIG decision rule over 154,440 distinct-label chains at n=13, t=4.
This module keeps what that sweep reads, and nothing else:

* every canonical node has a dense **row id** — ``node.row``, its index
  in :meth:`ArrayStore.interned_nodes` — so children always occupy
  smaller ids than their parents;
* leaves are small-integer **codes** from a per-store typed-leaf
  alphabet (keyed ``(type, value)``, so ``True`` and ``1`` differ);
* ``children[row]`` holds one *ref* per component — a row id for a
  sub-array, or ``-(code + 1)`` for a leaf.

:func:`eig_sweep` descends once through ``children`` along
:class:`ChainTopology`'s extension-major chain order to every chain's
leaf code and vote, then tallies each level in place: every
one-relayer extension of a chain is one column of the level's votes.  It runs once per distinct state —
:func:`repro.fullinfo.decision.eig_byzantine_decision` memoises it on
the store — and only for nodes the dominant-child walk leaves with
more than ``_REFERENCE_MAX_CHAINS`` (24) chains; smaller, plain-tuple
and hostile states take the reference sweep in
:mod:`repro.fullinfo.decision`, which ``tests/arrays/test_flat.py``
holds this one to.  ``tests/arrays/chain_reference.py`` enumerates
the chain order as tuples; ``docs/perf.md`` has the measurements.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

import repro.obs.core as _obs
from repro.arrays.store import ArrayStore, InternedArray, TypedLeaf
from repro.errors import ConfigurationError

#: ``(n, depth)`` -> the distinct-label chain topology (a pure
#: function of its arguments; see :func:`chain_topology`).
_TOPOLOGIES: Dict[Tuple[int, int], "ChainTopology"] = {}

#: The most last-level chains, ``n! / (n - depth)!``, a sweep's tables
#: may hold.  They keep one int64 pick a chain, about 9 bytes with the
#: shorter levels (51 MB for the 5,765,760 of n=16, t=5; 55 MB at the
#: build's peak), and a sweep adds about 17 while it runs, so the cap
#: keeps a decision near 260 MB; n=19, t=6 would need 253,955,520.
MAX_SWEEP_CHAINS = 10_000_000

# ``tables_for`` (on the store itself) and ``chain_topology`` (in a
# module-level registry) memoise pure functions of their arguments:
# read-only views of interned nodes, and chain tables in closed form.


# -- the tables --------------------------------------------------------------

_INITIAL_CAPACITY = 64

RefTable = NDArray[np.int32]
IntColumn = NDArray[np.int64]


class FlatTables:
    """Append-only numpy mirror of one :class:`ArrayStore`'s DAG.

    Stores only ever grow and canonical nodes are immutable, so rows
    are immutable once written and children always occupy smaller row
    ids than their parents.  Obtain a store's mirror with
    :func:`tables_for`; it stays attached to the store and shares its
    lifetime.
    """

    def __init__(self, store: ArrayStore):
        self.store = store
        self.n = store.n
        # Rows mirrored so far: ``interned_nodes()[:_rows]``.
        self._rows = 0
        # Typed leaf -> small-integer code, and its inverse.
        self._code_of: Dict[TypedLeaf, int] = {}
        self._leaves: List[Any] = []
        self.children: RefTable = np.zeros(
            (_INITIAL_CAPACITY, store.n), dtype=np.int32
        )

    def __len__(self) -> int:
        return self._rows

    @property
    def leaf_alphabet_size(self) -> int:
        """Distinct typed leaves coded so far."""
        return len(self._leaves)

    def leaf_at(self, code: int) -> Any:
        """The leaf object a code stands for."""
        return self._leaves[code]

    def code_of(self, typed_leaf: TypedLeaf) -> Optional[int]:
        """The code of one typed leaf, or ``None`` if never mirrored."""
        return self._code_of.get(typed_leaf)

    def sync(self) -> int:
        """Mirror nodes interned since the last call; returns row count.

        O(new nodes).  Safe at any time: the store's intern order is
        child-before-parent, so every ref a new row needs is already
        assigned when the row is written.
        """
        nodes = self.store.interned_nodes()
        start = self._rows
        total = len(nodes)
        if total == start:
            return start
        capacity = len(self.children)
        if total > capacity:
            while capacity < total:
                capacity *= 2
            grown = np.zeros((capacity, self.n), dtype=np.int32)
            grown[:start] = self.children[:start]
            self.children = grown
        code_of = self._code_of
        leaves = self._leaves
        children = self.children
        for row in range(start, total):
            for slot, component in enumerate(nodes[row]):
                if type(component) is InternedArray:
                    children[row, slot] = component.row
                else:
                    typed = (component.__class__, component)
                    code = code_of.get(typed)
                    if code is None:
                        code = len(leaves)
                        code_of[typed] = code
                        leaves.append(component)
                    children[row, slot] = -(code + 1)
        self._rows = total
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count("arrays.flat.rows", total - start)
        return total


def tables_for(store: ArrayStore) -> FlatTables:
    """The flat mirror of ``store``, built on first use.

    The mirror hangs off the store itself, so it shares the store's
    lifetime exactly: :func:`repro.arrays.store.clear_shared_stores`
    drops both together, and worker processes forked mid-run inherit
    a consistent pair.
    """
    tables: Optional[FlatTables] = store.flat_tables
    if tables is None:
        tables = FlatTables(store)
        store.flat_tables = tables
    return tables


# -- the EIG chain sweep -----------------------------------------------------


class ChainTopology:
    """Gather tables over distinct-label relay chains for one ``(n, depth)``.

    Level ``l`` (1-based) lists the ``P(l) = n! / (n - l)!`` chains of
    ``l`` distinct labels from ``1..n`` **extension-major**: chain
    ``(q,) + s``, for ``s`` on level ``l - 1``, sits at index
    ``rank_s(q) * P(l - 1) + index(s)``, where ``rank_s(q)`` is ``q``'s
    position among the ``n - l + 1`` labels ``s`` leaves free.  Level
    ``l``'s values reshaped to ``(n - l + 1, P(l - 1))`` thus hold in
    column ``j`` exactly the one-relayer extensions of level ``l - 1``'s
    chain ``j``, which is what the majority rule tallies.

    ``pick[l - 1][i]`` is ``index(chain[:-1]) * n + chain[-1] - 1`` for
    level ``l``'s chain ``i``: where its component sits once the
    ``children`` rows of all level-``l - 1`` chains are gathered and
    flattened.  For ``(q,) + s`` the prefix ``(q,) + s[:-1]`` has
    ``q`` at rank ``e + [last(s) < q]`` (``e = rank_s(q)``), so
    ``pick = ((e + [last(s) < q]) * P(l - 2) + index(s[:-1])) * n +
    last(s) - 1``, which is ``s``'s own pick plus
    ``(e + [last(s) < q]) * n * P(l - 2)``; and ``last(s) < q`` holds
    iff ``e >= r(s)``, the rank of ``last(s)`` among the labels
    ``s[:-1]`` leaves free.  ``r`` obeys ``r((q,) + s) = r(s) - [e <
    r(s)]``, so each level is two lookups into ``(e, r)``-indexed
    tables of ``(n - l + 1) * (n - l + 2)`` entries: no chain is
    materialised.
    """

    __slots__ = ("pick", "level_sizes")

    def __init__(self, n: int, depth: int):
        self.pick: List[IntColumn] = []
        #: Chains per level, level 0 included (the empty chain).
        self.level_sizes: List[int] = [1]
        if depth == 0:
            return
        pick: IntColumn = np.arange(n, dtype=np.int64)
        rank: NDArray[Any] = np.arange(n, dtype=np.min_scalar_type(n))
        self.pick.append(pick)
        self.level_sizes.append(n)
        for level in range(2, depth + 1):
            extension = np.arange(n - level + 1)[:, None]
            last_rank = np.arange(n - level + 2)
            # Entry ``(e, r)``: the shift of ``s``'s pick, and ``r(q + s)``.
            shift = (extension + (extension >= last_rank)) * (
                n * self.level_sizes[-2]
            )
            grown = shift.take(rank, axis=1)  # the level's one int64 block
            grown += pick
            pick = grown.reshape(-1)
            if level < depth:
                rank = (
                    (last_rank - (extension < last_rank))
                    .astype(rank.dtype)
                    .take(rank, axis=1)
                    .reshape(-1)
                )
            self.pick.append(pick)
            self.level_sizes.append(len(pick))


def refuse_oversized_tables(n: int, depth: int) -> None:
    """Raise :class:`ConfigurationError` when ``(n, depth)``'s chain
    tables would pass :data:`MAX_SWEEP_CHAINS`; allocates nothing."""
    chains = math.perm(n, depth)
    if chains > MAX_SWEEP_CHAINS:
        raise ConfigurationError(
            f"n={n}, t={depth - 1}: the EIG decision would sweep "
            f"{chains:,} relay chains, more than the {MAX_SWEEP_CHAINS:,} "
            "its tables may hold"
        )


def chain_topology(n: int, depth: int) -> ChainTopology:
    """The memoised chain topology for ``(n, depth)``.

    Requires ``depth <= n`` — longer distinct-label chains do not
    exist, and the reference sweep has no resolution for them — and
    at most :data:`MAX_SWEEP_CHAINS` chains.
    """
    if depth > n:
        raise ConfigurationError(
            f"no depth-{depth} distinct-label chains over {n} labels"
        )
    refuse_oversized_tables(n, depth)
    key = (n, depth)
    topology = _TOPOLOGIES.get(key)
    if topology is None:
        topology = ChainTopology(n, depth)
        _TOPOLOGIES[key] = topology
    return topology


def eig_sweep(
    state: InternedArray,
    vote_of_code: NDArray[Any],
    num_candidates: int,
    default_index: int,
) -> int:
    """The EIG strict-majority resolution of ``state``, vectorized.

    ``vote_of_code`` maps every leaf code of the state's store to a
    candidate index below ``num_candidates`` (int8 when that fits).
    Returns the winning candidate index for the empty chain.

    One descent reads every distinct-label chain's vote: per level,
    the ``children`` rows of all chains so far are gathered whole and
    the distinct-label columns taken out of the flattened block
    (``ChainTopology.pick``), so paths sharing an array prefix share
    the gather; the last level's refs are leaf codes, read through
    ``vote_of_code``.  Then, level by level upward, the votes reshape
    to ``(extensions, chains one level up)`` and each column is
    tallied in place against the strict-majority rule ``2 * count >
    extensions``, under which at most one candidate per column can win
    and no tie-break is ever consulted — the reference sweep's
    outcome, whose rank tie-break only picks among candidates that
    then lose to the default.  Two candidates take a
    sum down the column and one compare; more take one ``np.unique``
    with counts over ``column * k + vote``, so the cost is O(chains log
    chains) and the memory O(chains) whatever ``k`` a Byzantine leaf
    set chooses.
    """
    tables = tables_for(state.store)
    n = tables.n
    topology = chain_topology(n, state.depth)
    tables.sync()
    children = tables.children
    refs: IntColumn = np.asarray([state.row], dtype=np.int64)
    for pick in topology.pick:
        refs = children.take(refs, axis=0).reshape(-1).take(pick)
    votes: NDArray[Any] = vote_of_code.take(~refs)
    k = num_candidates
    for level in range(state.depth, 0, -1):
        columns = topology.level_sizes[level - 1]
        extensions = n - level + 1
        half = extensions // 2  # 2 * count > extensions  <=>  count > half
        votes = votes.reshape(extensions, columns)
        if k == 2:
            ones = votes.sum(axis=0, dtype=np.int8 if extensions < 128 else None)
            # Default 0 loses only to a majority of 1s, default 1 only
            # to a majority of 0s.
            won = ones > half if default_index == 0 else ones >= extensions - half
            votes = won.view(np.int8)
            continue
        keys, counts = np.unique(
            votes + np.arange(0, columns * k, k), return_counts=True
        )
        winners = keys[counts > half]
        votes = np.full(columns, default_index, dtype=vote_of_code.dtype)
        votes[winners // k] = winners % k
    return int(votes[0])
