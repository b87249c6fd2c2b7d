"""Flat integer-table kernel over the interned DAG.

The hash-consing store (:mod:`repro.arrays.store`) collapses the
exponential full-information state into a DAG of canonical nodes,
making every per-round pass O(unique nodes).  What remains is pure
Python *node churn*: each pass still visits nodes one at a time
through dictionaries and recursion.  This module removes that layer
for the hot passes by mirroring a store into **flat integer tables**
and batch-scanning them with numpy:

* every canonical node becomes a dense **row id**, assigned in intern
  order — so children always occupy smaller ids than their parents,
  and a single ascending scan is a valid bottom-up traversal;
* leaf values are bit-packed into small-integer **codes** from a
  per-store typed-leaf alphabet (keyed ``(type, value)``, mirroring
  the store's typed identity, so ``True`` and ``1`` get distinct
  codes);
* ``children[row]`` holds one *ref* per component — a row id for a
  sub-array, or ``-(code + 1)`` for a leaf — beside parallel
  ``depth`` / ``leaf_count`` / ``defined`` columns.

On top of the tables sit three vectorized scans, each an exact
re-implementation of a hot per-round pass:

* :meth:`FlatTables.measured_bits` — per-node encoded sizes under a
  cost policy, computed level-by-level (an interned node's children
  all share one depth, so one gather-and-sum per depth layer covers
  every new row);
* :meth:`FlatTables.leaves_ok` — "every leaf satisfies a predicate"
  verdicts for whole row ranges at once (block-1 expansion and
  legality checks);
* :func:`eig_sweep` — the suffix-grouped strict-majority resolution
  of the EIG Byzantine decision rule as a row-gather descent and a
  ``bincount`` + threshold pass per level over a cached
  distinct-label chain topology.  It runs once per distinct state:
  :func:`repro.fullinfo.decision.eig_byzantine_decision` memoises its
  outcome on the store.

Every interned array takes these scans; there is no selection.  The
plain-tuple walkers that hostile and non-array messages still reach
(``encoded_message_bits``, ``validate_array``, the reference sweep in
:mod:`repro.fullinfo.decision`, ``ExpansionState(store=None)``) are
the semantic reference: ``tests/arrays/test_flat.py`` hands them the
same array as builtin tuples and requires identical results.
``docs/perf.md`` has the encoding layout and measurements.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

import repro.obs.core as _obs
from repro.arrays.store import ArrayStore, InternedArray, TypedLeaf
from repro.errors import ConfigurationError

#: ``(n, depth)`` -> the distinct-label chain topology (a pure
#: function of its arguments; see :func:`chain_topology`).
_TOPOLOGIES: Dict[Tuple[int, int], "ChainTopology"] = {}

PURITY_EXEMPT = {
    "tables_for": (
        "memoises one FlatTables mirror per ArrayStore on the store "
        "itself; the tables are derived read-only views of interned "
        "nodes, so the cached state is observationally pure"
    ),
    "chain_topology": (
        "memoises the (n, depth) chain-enumeration tables in a "
        "module-level registry (each keeping the tally bins of the "
        "last candidate count it served); both are pure functions of "
        "their arguments"
    ),
}


# -- the tables --------------------------------------------------------------

_INITIAL_CAPACITY = 64

RefTable = NDArray[np.int32]
IntColumn = NDArray[np.int64]
BoolColumn = NDArray[np.bool_]


def _grown(column: NDArray[Any], rows: int) -> NDArray[Any]:
    """``column`` with capacity for at least ``rows`` rows (amortized)."""
    capacity = int(column.shape[0])
    if rows <= capacity:
        return column
    while capacity < rows:
        capacity *= 2
    shape = (capacity,) + column.shape[1:]
    grown = np.zeros(shape, dtype=column.dtype)
    grown[: column.shape[0]] = column
    return grown


class _MeasureColumn:
    """One incremental per-row bit-size column (one cost policy)."""

    __slots__ = ("header_bits", "leaf_cost", "bits", "rows_done")

    def __init__(self, header_bits: int):
        self.header_bits = header_bits
        # Per-leaf-code cost, extended as the alphabet grows; each
        # distinct typed leaf is costed exactly once, ever.
        self.leaf_cost: List[int] = []
        self.bits: IntColumn = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.rows_done = 0


class _OkColumn:
    """One incremental per-row all-leaves-satisfy verdict column."""

    __slots__ = ("leaf_ok", "ok", "rows_done")

    def __init__(self) -> None:
        self.leaf_ok: List[bool] = []
        self.ok: BoolColumn = np.zeros(_INITIAL_CAPACITY, dtype=np.bool_)
        self.rows_done = 0


class FlatTables:
    """Append-only numpy mirror of one :class:`ArrayStore`'s DAG.

    Stores only ever grow and canonical nodes are immutable, so rows
    are immutable once written and children always occupy smaller row
    ids than their parents.  Every derived column (sizes, verdicts)
    exploits that: extending it to new rows is one batched gather per
    depth layer, never a revisit of old rows.  Obtain a store's
    mirror with :func:`tables_for`; it stays attached to the store
    and shares its lifetime.
    """

    def __init__(self, store: ArrayStore):
        self.store = store
        self.n = store.n
        # Node ``key_token`` -> row id, and row id -> node.
        self._row_index: Dict[object, int] = {}
        self._nodes: List[InternedArray] = []
        # Typed leaf -> small-integer code, and its inverse.
        self._code_of: Dict[TypedLeaf, int] = {}
        self._leaves: List[Any] = []
        self.children: RefTable = np.zeros(
            (_INITIAL_CAPACITY, store.n), dtype=np.int32
        )
        self.depth: IntColumn = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.leaf_count: IntColumn = np.zeros(
            _INITIAL_CAPACITY, dtype=np.int64
        )
        self.defined: BoolColumn = np.zeros(_INITIAL_CAPACITY, dtype=np.bool_)
        self._measure_columns: Dict[Any, _MeasureColumn] = {}
        self._ok_columns: Dict[Any, _OkColumn] = {}

    # -- mirroring ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

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
        start = len(self._nodes)
        total = len(nodes)
        if total == start:
            return start
        self.children = _grown(self.children, total)
        self.depth = _grown(self.depth, total)
        self.leaf_count = _grown(self.leaf_count, total)
        self.defined = _grown(self.defined, total)
        row_index = self._row_index
        code_of = self._code_of
        leaves = self._leaves
        children = self.children
        for row in range(start, total):
            node = nodes[row]
            for slot, component in enumerate(node):
                if type(component) is InternedArray:
                    children[row, slot] = row_index[component.key_token]
                else:
                    typed = (component.__class__, component)
                    code = code_of.get(typed)
                    if code is None:
                        code = len(leaves)
                        code_of[typed] = code
                        leaves.append(component)
                    children[row, slot] = -(code + 1)
            self.depth[row] = node.depth
            self.leaf_count[row] = node.leaf_count
            self.defined[row] = node.defined
            row_index[node.key_token] = row
            self._nodes.append(node)
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count("arrays.flat.rows", total - start)
        return total

    def row_of(self, node: InternedArray) -> int:
        """The row id of a node of this store (syncs if necessary)."""
        row = self._row_index.get(node.key_token)
        if row is None:
            self.sync()
            row = self._row_index[node.key_token]
        return row

    def node_at(self, row: int) -> InternedArray:
        """The canonical node a row mirrors."""
        return self._nodes[row]

    def _new_row_batches(
        self, start: int, total: int
    ) -> Iterator[Tuple[int, IntColumn]]:
        """Rows ``start:total`` grouped by depth, ascending.

        Children precede parents in row order, so ascending-depth
        batches are a valid bottom-up schedule for any column whose
        row value depends only on child rows — and the batch gathers
        see only complete inputs, because an interned node's children
        all share depth ``level - 1``.
        """
        fresh = np.arange(start, total, dtype=np.int64)
        depths = self.depth[fresh]
        for level in np.unique(depths):
            yield int(level), fresh[depths == level]

    # -- derived columns ---------------------------------------------------

    def measured_bits(
        self,
        node: InternedArray,
        key: Any,
        leaf_cost: Callable[[Any], int],
        header_bits: int,
    ) -> int:
        """Exact encoded size of ``node`` under one cost policy.

        ``key`` identifies the policy (callers derive it from their
        cost parameters — same key, same policy); ``leaf_cost`` maps
        one leaf object to its bit cost and is consulted once per
        distinct typed leaf, ever.  Equivalent to the recursive walk
        charging ``header_bits`` per tuple level plus
        ``leaf_cost(leaf)`` per leaf occurrence — computed for every
        store row at once, one vectorized gather-and-sum per depth
        layer, so steady-state per-message calls are O(1) lookups.
        """
        total = self.sync()
        column = self._measure_columns.get(key)
        if column is None:
            column = self._measure_columns[key] = _MeasureColumn(header_bits)
        if column.rows_done < total:
            cost_list = column.leaf_cost
            for code in range(len(cost_list), len(self._leaves)):
                cost_list.append(int(leaf_cost(self._leaves[code])))
            column.bits = _grown(column.bits, total)
            costs = np.asarray(cost_list, dtype=np.int64)
            children = self.children
            bits = column.bits
            header = column.header_bits
            for level, rows in self._new_row_batches(column.rows_done, total):
                refs = children[rows]
                if level == 1:
                    bits[rows] = header + costs[-(refs + 1)].sum(axis=1)
                else:
                    bits[rows] = header + bits[refs].sum(axis=1)
            column.rows_done = total
        return int(column.bits[self.row_of(node)])

    def leaves_ok(
        self,
        node: InternedArray,
        key: Any,
        leaf_ok: Callable[[Any], bool],
    ) -> bool:
        """Whether every leaf of ``node`` satisfies ``leaf_ok``.

        ``key`` identifies the (immutable) predicate; ``leaf_ok`` runs
        once per distinct typed leaf, ever.  Exact: a leaf predicate's
        verdict depends only on the leaf, so scanning distinct codes
        is equivalent to scanning all ``n ** depth`` occurrences.
        """
        total = self.sync()
        column = self._ok_columns.get(key)
        if column is None:
            column = self._ok_columns[key] = _OkColumn()
        if column.rows_done < total:
            ok_list = column.leaf_ok
            for code in range(len(ok_list), len(self._leaves)):
                ok_list.append(bool(leaf_ok(self._leaves[code])))
            column.ok = _grown(column.ok, total)
            code_ok = np.asarray(ok_list, dtype=np.bool_)
            children = self.children
            ok = column.ok
            for level, rows in self._new_row_batches(column.rows_done, total):
                refs = children[rows]
                if level == 1:
                    ok[rows] = code_ok[-(refs + 1)].all(axis=1)
                else:
                    ok[rows] = ok[refs].all(axis=1)
            column.rows_done = total
        return bool(column.ok[self.row_of(node)])


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
        previous: Dict[Tuple[int, ...], int] = {(): 0}
        for _ in range(depth):
            index_of: Dict[Tuple[int, ...], int] = {}
            pick: List[int] = []
            suffix: List[int] = []
            for prior_chain, prior_index in previous.items():
                for label in range(1, n + 1):
                    if label in prior_chain:
                        continue
                    chain = prior_chain + (label,)
                    index_of[chain] = len(pick)
                    pick.append(prior_index * n + label - 1)
                    suffix.append(previous[chain[1:]])
            self.pick.append(np.asarray(pick, dtype=np.int64))
            self.suffix.append(np.asarray(suffix, dtype=np.int64))
            self.level_sizes.append(len(pick))
            previous = index_of

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


def chain_topology(n: int, depth: int) -> ChainTopology:
    """The memoised chain topology for ``(n, depth)``.

    Requires ``depth <= n`` — longer distinct-label chains do not
    exist, and the reference sweep has no resolution for them.
    """
    if depth > n:
        raise ConfigurationError(
            f"no depth-{depth} distinct-label chains over {n} labels"
        )
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
    refs: NDArray[Any] = np.asarray([tables.row_of(state)], dtype=np.int64)
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
