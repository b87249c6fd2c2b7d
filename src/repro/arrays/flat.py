"""Flat integer tables over the interned DAG, for the EIG sweep.

The hash-consing store (:mod:`repro.arrays.store`) collapses the
exponential full-information state into a DAG of canonical nodes.  A
whole benchmark pass interns tens to a thousand of them (counts in
``docs/perf.md``), so what a node's *own* facts cost — its size under
a policy, whether its leaves are legal — is a dictionary's work, and
lives in the store's ``sizes`` and ``verdicts`` memos.  The one
numeric job that is large is the EIG decision rule: 154,440
distinct-label chains at n=13, t=4, each a descent through the DAG.
This module keeps what that sweep gathers over, and nothing else:

* every canonical node has a dense **row id** — ``node.row``, its index
  in :meth:`ArrayStore.interned_nodes`, assigned at intern time — so
  children always occupy smaller ids than their parents;
* leaf values are packed into small-integer **codes** from a per-store
  typed-leaf alphabet (keyed ``(type, value)``, mirroring the store's
  typed identity, so ``True`` and ``1`` get distinct codes);
* ``children[row]`` holds one *ref* per component — a row id for a
  sub-array, or ``-(code + 1)`` for a leaf.

:func:`eig_sweep` is the suffix-grouped strict-majority resolution of
the EIG Byzantine decision rule as a row-gather descent and a
``bincount`` + threshold pass per level over a cached distinct-label
chain topology.  It runs once per distinct state:
:func:`repro.fullinfo.decision.eig_byzantine_decision` memoises its
outcome on the store.

Not every state reaches the sweep.  A memo miss first walks the DAG
down dominant children (``fullinfo/decision.py::_dominant_child``),
which settles many states at a leaf, and a node the walk stops at with
at most ``_REFERENCE_MAX_CHAINS`` (24) chains takes the reference
sweep in :mod:`repro.fullinfo.decision`, as do plain-tuple and
hostile states.  That reference sweep is the semantic reference:
``tests/arrays/test_flat.py`` hands it the same array as builtin tuples
and requires identical results.  The chain tables are built by index
arithmetic, one numpy pass per level, and
``tests/arrays/chain_reference.py`` enumerates them as tuples for
``tests/arrays/test_chain_topology.py``.  ``docs/perf.md`` has the
layout and measurements.
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
#: may hold.  Building them peaks near 46 bytes a chain (265 MB for
#: the 5,765,760 of n=16, t=5), and a sweep gathers about as much
#: again, so the cap keeps a decision near half a gigabyte; n=19, t=6
#: would need 253,955,520 chains.
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
    """Index tables over distinct-label relay chains for one ``(n, depth)``.

    Level ``l`` (1-based) enumerates the length-``l`` chains of
    distinct labels from ``1..n`` in prefix-major label order.  For
    level ``l``'s chain ``i``, two parallel int64 arrays say how it
    relates to level ``l - 1``:

    * ``pick[l - 1][i]`` — ``index(chain[:-1]) * n + (chain[-1] - 1)``:
      where the chain's component sits once the ``children`` rows of
      all length-``l - 1`` chains are gathered and flattened,
    * ``suffix[l - 1][i]`` — the index of ``chain[1:]``.

    ``pick`` drives the downward array descent (extending a path
    appends the label indexing the next component); ``suffix`` drives
    the upward majority sweep (extending a *chain* prepends the later
    relayer in array-path order).

    No chain is materialised.  Each level is built from the one before
    by index arithmetic: every parent chain ``p`` has ``n - l + 1``
    free labels, listed in ``np.nonzero`` row-major order over a
    per-parent used-label mask (which *is* prefix-major order), so
    ``pick = index(p) * n + (label - 1)``, and for ``l >= 2``
    ``suffix(p + (label,)) = suffix(p) * (n - l + 2) + rank + [p[0] <
    label]``, ``rank`` being the label's position among ``p``'s free
    labels: ``p[1:]`` has ``n - l + 2`` extensions in the same order,
    with ``p[0]`` among them.  Building ``(13, 5)`` takes about 12 ms,
    ``(16, 6)`` (5,765,760 chains) well under a second.
    """

    __slots__ = ("n", "depth", "pick", "suffix", "level_sizes", "_bins")

    def __init__(self, n: int, depth: int):
        self.n = n
        self.depth = depth
        self.pick: List[IntColumn] = []
        self.suffix: List[IntColumn] = []
        #: Chains per level, level 0 included (the empty chain).
        self.level_sizes: List[int] = [1]
        # The last ``(spread, tally_bins(spread))`` served.
        self._bins: Tuple[int, List[IntColumn]] = (0, [])
        # Per parent chain, one row each from the empty chain on: the
        # labels it holds, its first label's column and its suffix.
        used: NDArray[np.bool_] = np.zeros((1, n), dtype=np.bool_)
        first: NDArray[Any] = np.zeros(1, dtype=np.int64)
        suffix: NDArray[Any] = np.zeros(1, dtype=np.int64)
        for level in range(1, depth + 1):
            # Row-major over (parent, free label): prefix-major order.
            parent, label = (
                axis.astype(np.int64, copy=False) for axis in np.nonzero(~used)
            )
            free = n - level + 1
            if level == 1:
                suffix = np.zeros(n, dtype=np.int64)
            else:
                # Every parent has ``free`` extensions, so a label's rank
                # among its parent's free labels is its position mod
                # ``free``; the suffix's parent ``p[1:]`` also has ``p[0]``
                # free, which shifts every later label up by one.
                rank = np.arange(len(label), dtype=np.int64) % free
                suffix = (
                    suffix[parent] * (free + 1)
                    + rank
                    + (first[parent] < label)
                )
            self.pick.append(parent * n + label)
            self.suffix.append(suffix)
            self.level_sizes.append(len(label))
            if level < depth:
                first = first[parent] if level > 1 else label
                used = used[parent]
                used[np.arange(len(label)), label] = True

    def tally_bins(self, spread: int) -> List[IntColumn]:
        """Per level, each chain's first ``bincount`` bin: ``suffix * spread``.

        A chain voting for candidate ``v`` lands in bin
        ``suffix * spread + v``.  Consecutive sweeps almost always
        rank the same number of candidates (the alphabet plus the
        default), so the products of the last ``spread`` are kept —
        one entry, because a Byzantine sender can vary the candidate
        count of an alphabet-less state at will.
        """
        cached_spread, bins = self._bins
        if cached_spread != spread:
            bins = [suffix * spread for suffix in self.suffix]
            self._bins = (spread, bins)
        return bins


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
    vote_of_code: IntColumn,
    num_candidates: int,
    default_index: int,
) -> int:
    """The EIG strict-majority resolution of ``state``, vectorized.

    ``vote_of_code`` maps every leaf code of the state's store to a
    candidate index below ``num_candidates``.  Returns the winning
    candidate index for the empty chain.

    One descent reads every distinct-label chain's recorded leaf: per
    level, the ``children`` rows of all chains so far are gathered
    whole and the distinct-label columns taken out of the flattened
    block (``ChainTopology.pick``), so paths sharing an array prefix
    share the gather.  Then each upward pass tallies length-``l``
    resolutions under their length-``l - 1`` suffix with one
    ``bincount`` and applies the strict-majority rule
    ``2 * count > n - (l - 1)`` in bulk: at most one candidate per
    group can pass it, so the winners are scattered over a
    ``default_index`` fill and no tie-break is ever consulted —
    which is the reference sweep's outcome, whose rank tie-break only
    picks among candidates that then lose to the default.  Every
    length-``l - 1`` chain has exactly ``n - (l - 1)`` one-relayer
    extensions (``depth <= n``), so no tally group is empty.
    """
    tables = tables_for(state.store)
    depth = state.depth
    n = tables.n
    topology = chain_topology(n, depth)
    tables.sync()
    children = tables.children
    refs: NDArray[Any] = np.asarray([state.row], dtype=np.int64)
    for pick in topology.pick:
        refs = children.take(refs, axis=0).reshape(-1).take(pick)
    votes: IntColumn = vote_of_code.take(-(refs + 1))
    bins = topology.tally_bins(num_candidates)
    for level in range(depth, 0, -1):
        groups = topology.level_sizes[level - 1]
        counts = np.bincount(
            bins[level - 1] + votes, minlength=groups * num_candidates
        )
        # 2 * count > extensions  <=>  count > extensions // 2.
        won = np.flatnonzero(counts > (n - (level - 1)) // 2)
        group, vote = np.divmod(won, num_candidates)
        votes = np.full(groups, default_index, dtype=np.int64)
        votes[group] = vote
    return int(votes[0])
