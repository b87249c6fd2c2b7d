"""Hash-consed value arrays: a structural-sharing DAG kernel.

A full-information state after ``r`` rounds is a depth-``r`` nested
tuple with ``n ** r`` leaves — but because the protocol *broadcasts*,
those trees are overwhelmingly shared substructure: the same sub-array
object appears in every receiver's state.  The tree is really a small
DAG, and every per-round cost that walks the tree (shape validation,
bit sizing, reconstruction) is exponentially redundant work.

This module makes the DAG explicit.  An :class:`ArrayStore` *interns*
(hash-conses) well-shaped arrays into canonical :class:`InternedArray`
nodes — one object per distinct typed structure — carrying precomputed
metadata:

* ``depth`` — the array dimension (shape is validated at intern time,
  so holding an ``InternedArray`` *is* a proof of uniform shape);
* ``leaf_count`` — ``n ** depth``;
* ``leaves_unique`` — the distinct typed leaves, in first-occurrence
  order (value alphabets are small, so this stays tiny even for
  astronomically large trees);
* ``defined`` — whether no leaf is :data:`repro.types.BOTTOM`;
* a cached structural hash, making dictionary lookups O(1) instead of
  O(``n ** depth``);
* ``key_token`` — a unique identity token for memo caches that must
  distinguish leaf *types* (``True`` vs ``1``), which tuple equality
  does not.

Interning is **semantically invisible**: an ``InternedArray`` is a
``tuple`` subclass, so it compares, iterates, unpacks, hashes and
prints exactly like the plain nested tuple it canonicalises, and it
*pickles as a plain tuple* (see :meth:`InternedArray.__reduce__`), so
pickled results, traces and the parallel sweep executor observe identical
bytes.

Leaf types are part of the intern key: ``(True, True)`` and ``(1, 1)``
are tuple-equal but are kept as *distinct* canonical nodes because bit
accounting charges a bool as a value and a small int as a processor
index.  Two interned nodes are therefore identical (``is``) iff they
have equal typed structure — which is what makes ``key_token`` a sound
cache key for typed measurements.

Byzantine garbage (ragged tuples, wrong-length levels, unhashable
leaves) fails interning with :class:`~repro.errors.ProtocolViolation`
and never becomes a canonical node; use :meth:`ArrayStore.try_intern`
for the defensive entry points.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import repro.obs.core as _obs
from repro.errors import ProtocolViolation
from repro.types import is_bottom

#: Deepest plain-tuple nesting :meth:`ArrayStore.intern` will open.  A
#: depth-``d`` array has ``n ** d`` leaves and takes ``d`` rounds of
#: full information to build, so nothing honest comes near it; the cap
#: exists so that a hostile payload nested thousands deep is a
#: :class:`~repro.errors.ProtocolViolation` well inside the
#: interpreter's recursion limit, never a ``RecursionError``.
MAX_DEPTH = 256

#: A distinct typed leaf: ``(type(leaf), leaf)``.  The second element
#: is the original leaf object, so predicates see its true type.
TypedLeaf = Tuple[type, Any]

# Functions that maintain the process-wide shared-store registry.  The
# registry is hash-consing state, not protocol state: canonical nodes
# are value-equal to the tuples they replace, so which store produced a
# node can never alter a protocol-visible outcome; the registry only
# controls how much structure is shared (and `clear_shared_stores`
# exists so tests and long-lived services can drop it wholesale).
# Dropping the registry records its high-water mark first, so the peak
# survives the reset, and what is memoised on a store (flat tables,
# sizes, verdicts, decision and expansion memos: pure functions of its
# nodes) goes with it.


class InternedArray(Tuple[Any, ...]):
    """A canonical, shape-validated array node produced by a store.

    Never construct one directly — only :meth:`ArrayStore.intern`
    does, which is what guarantees the canonicality invariant (one
    object per distinct typed structure per store) that every fast
    path in :mod:`repro.arrays` relies on.
    """

    # tuple subclasses cannot carry nonempty __slots__; metadata lives
    # in the instance dict, paid once per *unique* node.
    depth: int
    leaf_count: int
    leaves_unique: Tuple[TypedLeaf, ...]
    defined: bool
    key_token: object
    store: "ArrayStore"
    # Index in the store's intern order: the flat kernel's row id.
    row: int
    _hash: int

    def __hash__(self) -> int:
        # The standard tuple hash, cached: children are canonical
        # nodes whose hashes are themselves cached, so computing it
        # costs O(n) once per unique node instead of O(n ** depth)
        # per lookup.
        return self._hash

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickle (and deepcopy) as the plain tuple this node stands
        # for.  Children reduce recursively, so pickled results, traces
        # and pooled sweep results carry ordinary nested tuples and
        # stay byte-compatible with un-interned runs.
        return (tuple, (tuple(self),))


class ArrayStore:
    """An interning pool of canonical array nodes for one system size.

    Every node in a store has exactly ``n`` components at every level,
    so membership doubles as a shape certificate.  Stores only ever
    *grow* — canonical nodes are immutable and never replaced — which
    is what makes the identity-keyed memos below (sizes, legality
    verdicts, EIG decisions, expansions) safe across rounds and
    executions.  Each is a pure function of canonical nodes, filled by
    the module named beside it and dropped with the store by
    :func:`release_shared_stores`.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"store width must be positive, got {n}")
        self.n = n
        # Typed structure key -> the canonical node.
        self._nodes: Dict[Tuple[Any, ...], InternedArray] = {}
        # The same nodes in intern order (children always precede
        # parents; ``node.row`` is its index here): the append-only
        # feed the flat-kernel mirror (repro.arrays.flat) syncs from
        # incrementally.
        self._order: List[InternedArray] = []
        # (cost policy, node key_token) -> the node's encoded size in
        # bits, each from its children's sizes (repro.arrays.encoding).
        self.sizes: Dict[Any, int] = {}
        # (leaf policy, node key_token) -> whether every distinct leaf
        # of the node satisfies the policy's predicate, shared by every
        # processor and gate on this store (repro.fullinfo.protocol).
        self.verdicts: Dict[Any, bool] = {}
        # The store's FlatTables mirror, attached lazily by
        # repro.arrays.flat.tables_for (typed Any: flat imports this
        # module, not the other way around).
        self.flat_tables: Optional[Any] = None
        # EIG decisions already resolved on this store's nodes, keyed
        # and filled by repro.fullinfo.decision (node key_token + typed
        # rule parameters).  Kept here so that it shares the store's
        # lifetime: release_shared_stores drops both together.
        self.eig_decisions: Dict[Any, Any] = {}
        # Defined compact-protocol expansions phi_b(node), keyed and
        # filled by repro.compact.expansion (node key_token + the
        # images of its distinct leaves — all a result depends on),
        # shared by every processor on this store.  Same lifetime.
        self.expansions: Dict[Any, Any] = {}

    def __len__(self) -> int:
        """Number of unique canonical nodes interned so far."""
        return len(self._nodes)

    def interned_nodes(self) -> List[InternedArray]:
        """Every canonical node, in intern (child-before-parent) order.

        The returned list is the store's own append-only record —
        treat it as read-only.  Index ``i`` is stable forever, which
        is what lets incremental consumers resume from where they
        stopped.
        """
        return self._order

    def intern(self, array: Any) -> Any:
        """The canonical form of ``array``; scalars pass through.

        Raises
        ------
        ProtocolViolation
            If ``array`` is not a well-shaped ``n``-ary array (ragged,
            wrong-length level), contains an unhashable leaf, or nests
            plain tuples more than :data:`MAX_DEPTH` deep.  No
            malformed node is ever added to the store (well-shaped
            *sub*-arrays of a malformed array are, harmlessly: they
            are valid nodes in their own right).
        """
        if not isinstance(array, tuple):
            return array
        return self._intern_node(array, {}, MAX_DEPTH)

    def try_intern(
        self, array: Any, max_depth: int = MAX_DEPTH
    ) -> Optional[InternedArray]:
        """Like :meth:`intern` for tuples, but ``None`` on garbage.

        The defensive entry point for anything received from a
        possibly faulty sender.  ``array`` must be a tuple (scalars
        have no canonical form; callers handle them first).

        ``max_depth`` bounds the descent: a receiver that knows the
        depth it expects passes it, and a payload nested deeper is
        rejected after at most that many levels instead of being
        walked to the bottom (or to the interpreter's recursion
        limit).  An already-canonical node is returned whatever its
        depth — that costs nothing — so callers still compare
        ``depth`` themselves.
        """
        if not isinstance(array, tuple):
            return None
        try:
            return self._intern_node(array, {}, min(max_depth, MAX_DEPTH))
        except ProtocolViolation:
            return None

    def _intern_node(
        self,
        node: Tuple[Any, ...],
        seen: Dict[int, InternedArray],
        budget: int,
    ) -> InternedArray:
        """Recursive intern with a per-call identity memo.

        ``seen`` maps ``id`` of already-walked plain sub-tuples to
        their canonical nodes, so a plain tree that is secretly a DAG
        (the normal case: broadcast states share sub-objects) is
        walked in O(unique objects), not O(tree).  The caller's root
        reference keeps every sub-object alive for the duration, so
        ids cannot be recycled mid-call.  ``budget`` is how many more
        levels of plain tuples may be opened, this one included.
        """
        if type(node) is InternedArray and node.store is self:
            observer = _obs.ACTIVE
            if observer is not None:
                observer.count("arrays.intern.hit")
            return node
        memoed = seen.get(id(node))
        if memoed is not None:
            return memoed
        if len(node) != self.n:
            raise ProtocolViolation(
                f"array level has length {len(node)}, expected n={self.n}"
            )
        if budget <= 0:
            raise ProtocolViolation("array is nested deeper than allowed")

        children: List[Any] = []
        key_parts: List[Any] = []
        child_depths: List[int] = []
        for component in node:
            if isinstance(component, tuple):
                canonical = self._intern_node(component, seen, budget - 1)
                children.append(canonical)
                # Key the child by its identity token, not the node:
                # nodes compare by type-insensitive tuple equality, so
                # typed-distinct children ((3, 1) vs (3, True)) would
                # collide in the key dict and merge their parents.
                key_parts.append(canonical.key_token)
                child_depths.append(canonical.depth)
            else:
                children.append(component)
                key_parts.append((component.__class__, component))
                child_depths.append(0)
        if len(set(child_depths)) != 1:
            raise ProtocolViolation(
                f"ragged array: component depths {sorted(set(child_depths))}"
            )

        key = tuple(key_parts)
        try:
            existing = self._nodes.get(key)
        except TypeError:
            raise ProtocolViolation(
                "array has an unhashable leaf; cannot be canonicalised"
            ) from None
        if existing is not None:
            seen[id(node)] = existing
            observer = _obs.ACTIVE
            if observer is not None:
                observer.count("arrays.intern.hit")
            return existing

        canonical_node = self._build(key, tuple(children), child_depths[0])
        seen[id(node)] = canonical_node
        return canonical_node

    def _build(
        self,
        key: Tuple[Any, ...],
        children: Tuple[Any, ...],
        child_depth: int,
    ) -> InternedArray:
        """Create and register a new canonical node (children canonical)."""
        leaf_count = 0
        defined = True
        leaves: List[TypedLeaf] = []
        seen_leaves: Dict[TypedLeaf, None] = {}
        for component in children:
            if type(component) is InternedArray:
                leaf_count += component.leaf_count
                defined = defined and component.defined
                for typed_leaf in component.leaves_unique:
                    if typed_leaf not in seen_leaves:
                        seen_leaves[typed_leaf] = None
                        leaves.append(typed_leaf)
            else:
                leaf_count += 1
                defined = defined and not is_bottom(component)
                typed_leaf = (component.__class__, component)
                if typed_leaf not in seen_leaves:
                    seen_leaves[typed_leaf] = None
                    leaves.append(typed_leaf)

        node = tuple.__new__(InternedArray, children)
        node.depth = child_depth + 1
        node.leaf_count = leaf_count
        node.leaves_unique = tuple(leaves)
        node.defined = defined
        node.key_token = object()
        node.store = self
        node.row = len(self._order)
        node._hash = tuple.__hash__(node)
        self._nodes[key] = node
        self._order.append(node)
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count("arrays.intern.miss")
        return node


#: The process-wide shared stores, one per system size ``n``.
_SHARED_STORES: Dict[int, ArrayStore] = {}

#: Most canonical nodes ever live across the registry at once —
#: survives :func:`clear_shared_stores`, so long-lived services can
#: see the peak even after the periodic resets that bound it.
_HIGH_WATER_NODES = 0


def shared_store(n: int) -> ArrayStore:
    """The process-wide canonical-node pool for system size ``n``.

    All processors of all executions at one ``n`` share it, which is
    exactly the point: a broadcast sub-array is interned once and
    every receiver's state references the same node.
    """
    store = _SHARED_STORES.get(n)
    if store is None:
        store = ArrayStore(n)
        _SHARED_STORES[n] = store
    return store


def clear_shared_stores() -> None:
    """Drop every shared store (tests; long-lived services).

    Existing interned nodes stay valid — they keep their metadata and
    their store reference alive — but new interning starts from empty
    pools, so previously-issued nodes will no longer be identical to
    newly interned equal structures.

    The registry otherwise grows without bound across unrelated
    workloads (every sweep cell's states stay reachable through it),
    so the sweep and fuzz campaign runners call this
    between workloads; the peak is recorded first (see
    :func:`shared_store_stats`).
    """
    global _HIGH_WATER_NODES
    nodes = sum(len(store) for store in _SHARED_STORES.values())
    if nodes > _HIGH_WATER_NODES:
        _HIGH_WATER_NODES = nodes
    _SHARED_STORES.clear()


def shared_store_stats() -> Dict[str, int]:
    """Size of the shared-store registry, for leak monitoring.

    ``nodes``/``stores`` count what is live right now;
    ``high_water_nodes`` is the most nodes ever observed at once
    (updated here and when :func:`clear_shared_stores` drops a
    registry, so the peak survives the reset).
    """
    global _HIGH_WATER_NODES
    nodes = sum(len(store) for store in _SHARED_STORES.values())
    if nodes > _HIGH_WATER_NODES:
        _HIGH_WATER_NODES = nodes
    return {
        "nodes": nodes,
        "stores": len(_SHARED_STORES),
        "high_water_nodes": _HIGH_WATER_NODES,
    }


def release_shared_stores() -> None:
    """End-of-workload registry release: observe, then clear.

    The one helper every workload boundary goes through — the sweep
    runner (serial and pooled) and the fuzz campaign between
    workload groups.  It records the ``arrays.shared_store.*`` gauges
    while the stores are still alive, and then drops the registry so
    unrelated workloads start from empty pools.
    """
    observe_shared_stores()
    clear_shared_stores()


def observe_shared_stores() -> None:
    """Report registry size through the active observer's gauges."""
    observer = _obs.ACTIVE
    if observer is None:
        return
    stats = shared_store_stats()
    observer.gauge("arrays.shared_store.nodes", stats["nodes"])
    observer.gauge("arrays.shared_store.stores", stats["stores"])
    observer.gauge(
        "arrays.shared_store.high_water_nodes", stats["high_water_nodes"]
    )
