"""The exponential Byzantine agreement decision rule over full-information states.

Corollary 10 cites Lamport, Shostak and Pease [13].  Applied to a
depth-``t + 1`` full-information state with ``n > 3t``,
:func:`eig_byzantine_decision` performs the classic recursive
strict-majority resolution over relay chains with *distinct* labels
(repeat-label chains carry no extra power and are excluded, as in the
standard EIG analysis):

* a full-length chain resolves to its recorded value,
* an internal chain resolves to the strict majority of its one-relayer
  extensions, or the default value when no strict majority exists,
* the decision is the resolution of the empty chain.

Malformed leaves (a Byzantine processor's garbage surviving into a
claim about itself) are normalised to the default value first.

The rule is a function of the information state alone — which
processor evaluates it does not matter — and the hash-consing store
makes equal states one canonical node.  So on interned states each
``(node, n, t, default, alphabet)`` is resolved once per store and
every other correct processor (and every later execution sharing the
store) reads the answer back; see :func:`eig_byzantine_decision`.
Plain tuples never consult the memo or the flat sweep: the same state
handed over as builtin tuples is the reference.

A memo miss on an interned state first walks the DAG down while one
child object fills more than ``(n + depth - 1) / 2`` of a node's
slots: such a node resolves exactly as that child does one level down
(:func:`_dominant_child`), so states on which the correct processors
agree — Theorem 9 keeps the simulated ones equal — are often settled
by a leaf with no sweep at all.  Only the node where the walk stops is
swept: by the flat kernel (:mod:`repro.arrays.flat`) when it has more
than ``_REFERENCE_MAX_CHAINS`` relay chains, else by the reference
sweep, whose tables-free walk is cheaper there (so a small run never
imports numpy).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import repro.obs.core as _obs
from repro.arrays.store import InternedArray
from repro.arrays.value_array import array_depth, unique_leaves
from repro.errors import ProtocolViolation
from repro.types import BOTTOM, ProcessId, Value

Chain = Tuple[ProcessId, ...]


def eig_byzantine_decision(
    state: Any,
    n: int,
    t: int,
    process_id: ProcessId,
    default: Value,
    alphabet: Optional[Sequence[Value]] = None,
) -> Value:
    """Resolve a depth-``t + 1`` full-information state to a decision.

    Parameters
    ----------
    state:
        The processor's full-information state after ``t + 1`` rounds.
    default:
        The value adopted where no strict majority exists; all correct
        processors must use the same default.
    alphabet:
        When given, leaves outside it are replaced by ``default``
        before resolution (defence against garbage leaves).

    Two layers, outermost first: the store's in-memory memo
    (:func:`_eig_memo_key`; ``eig.decision.hit`` / ``.miss``) and the
    resolution itself, whose route counters therefore count memo
    misses, not calls: ``eig.kernel.descent`` a miss the dominant-child
    walk settled with no sweep, ``eig.kernel.flat`` / ``.fallback`` one
    whose remaining node has more than ``_REFERENCE_MAX_CHAINS`` chains
    (smaller ones take the reference sweep uncounted).
    """
    with _obs.span("eig.decision"):
        # The resolution is a pure function of (typed structure, n, t,
        # default, alphabet) — process_id does not enter it — and equal
        # typed structures are one canonical node, so whichever
        # processor resolves a node first resolves it for all of them.
        memo_key = _eig_memo_key(state, n, t, default, alphabet)
        if memo_key is None:
            return _resolve_eig_decision(
                state, n, t, process_id, default, alphabet
            )
        memo = state.store.eig_decisions
        observer = _obs.ACTIVE
        value = memo.get(memo_key, _MISSING)
        if value is not _MISSING:
            if observer is not None:
                observer.count("eig.decision.hit")
            return value
        if observer is not None:
            observer.count("eig.decision.miss")
        # Written only once the resolution has succeeded: a state of
        # the wrong depth raises on every call, memo or no memo.
        value = memo[memo_key] = _resolve_eig_decision(
            state, n, t, process_id, default, alphabet
        )
        return value


def _eig_memo_key(
    state: Any,
    n: int,
    t: int,
    default: Value,
    alphabet: Optional[Sequence[Value]],
) -> Optional[Tuple[Any, ...]]:
    """The in-memory memo key of one EIG decision, or ``None`` to bypass.

    ``key_token`` stands for the state's typed structure (and pins
    the store: tokens are never shared between stores).  ``default``
    can be returned as the decision itself, so it is keyed the way
    :func:`_flat_sweep_index` tells votes apart — class, value and
    repr, which separates ``True`` from ``1`` and ``0.0`` from
    ``-0.0``.  The alphabet only ever answers membership tests, which
    its typed member set determines.  Bypassed — the call is then
    exactly the un-memoised one — for plain tuples and when
    ``default`` or an alphabet member is unhashable.
    """
    if type(state) is not InternedArray:
        return None
    try:
        key = (
            state.key_token, n, t,
            default.__class__, default, repr(default),
            None if alphabet is None else frozenset(
                (member.__class__, member) for member in alphabet
            ),
        )
        hash(key)
    except TypeError:
        return None
    return key


def _normaliser(
    default: Value, alphabet: Optional[Sequence[Value]]
) -> Callable[[Any], Value]:
    """Leaf laundering: outside ``alphabet`` (or unhashable) is ``default``."""
    if alphabet is None:
        return lambda leaf: leaf
    legal = frozenset(alphabet)

    def normalise(leaf: Any) -> Value:
        try:
            return leaf if leaf in legal else default
        except TypeError:
            return default

    return normalise


def resolve_chains(
    leaf_of: Callable[[Chain], Any],
    n: int,
    depth: int,
    default: Value,
    alphabet: Optional[Sequence[Value]],
    root: Chain = (),
) -> Value:
    """:func:`eig_byzantine_decision`'s rule top-down from ``root``,
    leaves on demand: a length-``depth`` chain resolves to its
    normalised ``leaf_of(chain)``, a shorter one to the strict majority
    of its distinct-label extensions.  For callers with no whole array
    to sweep: one source's tree (``root = (q,)``).
    """
    normalise = _normaliser(default, alphabet)
    memo: Dict[Chain, Value] = {}

    def resolve(path: Chain) -> Value:
        if path in memo:
            return memo[path]
        if len(path) == depth:
            value = normalise(leaf_of(path))
        else:
            relayers = [q for q in range(1, n + 1) if q not in path]
            tally: Dict[Hashable, int] = {}
            for relayer in relayers:
                vote = resolve((relayer,) + path)
                tally[vote] = tally.get(vote, 0) + 1
            # The first of the most frequent votes in repr order.
            value, count = max(
                sorted(tally.items(), key=lambda item: repr(item[0])),
                key=lambda item: item[1], default=(default, 0),
            )
            if count * 2 <= len(relayers):
                value = default
        memo[path] = value
        return value

    return resolve(root)


def _resolve_eig_decision(
    state: Any,
    n: int,
    t: int,
    process_id: ProcessId,
    default: Value,
    alphabet: Optional[Sequence[Value]],
) -> Value:
    depth = array_depth(state, n)
    if depth != t + 1:
        raise ProtocolViolation(
            f"EIG decision needs a depth-{t + 1} state, got depth {depth}"
        )
    normalise = _normaliser(default, alphabet)

    # Dominant-child walk.  If one child object fills ``a`` slots of a
    # depth-``h`` node with ``2a > n + h - 1``, every length-``h - 1``
    # chain has at least ``a - (h - 1)`` of its ``n - (h - 1)``
    # one-relayer extensions reading that child's leaf, a strict
    # majority, and the recursion above the leaves is the child's own:
    # the node resolves exactly as the child does at depth ``h - 1``
    # (at ``h = 1``, to the child leaf's normalised value).  The walk
    # names its winner without the sweep's recording order, so it runs
    # only when no value-equal votes are distinguishable (see
    # _votes_unambiguous); a state's descendants carry no leaf it lacks.
    if type(state) is InternedArray and _votes_unambiguous(
        [default] + [normalise(leaf) for _, leaf in state.leaves_unique]
    ):
        child = _dominant_child(state, depth, n)
        while child is not _MISSING:
            state, depth = child, depth - 1
            if depth == 0:
                observer = _obs.ACTIVE
                if observer is not None:
                    observer.count("eig.kernel.descent")
                return normalise(state)
            child = _dominant_child(state, depth, n)

    # Precompute the deterministic vote order once: every vote a node
    # can tally is a normalised leaf or the default.  The old code
    # re-sorted each node's tally by repr; the tie-break provably
    # cannot change the decision (a strict-majority winner is unique,
    # and without one the node resolves to ``default``), but ranking
    # keeps ``best_value`` selection bit-for-bit identical.
    candidates: Dict[Hashable, None] = {default: None}
    try:
        for _, leaf in unique_leaves(state):
            candidates[normalise(leaf)] = None
    except TypeError:  # unhashable leaf with no alphabet to launder it
        pass
    ordered = sorted(candidates, key=repr)
    rank = {vote: position for position, vote in enumerate(ordered)}
    unranked = len(rank)

    # Flat-kernel sweep: the same resolution as one numpy descent +
    # per-level bincount over the interned tables (repro.arrays.flat).
    # Falls back to the reference sweep whenever byte-identity cannot
    # be guaranteed by construction (see _flat_sweep_index).  A state
    # with few chains goes to the reference sweep directly: there the
    # tables cost more than they save.  ``math.perm`` is 0 when
    # ``depth > n``, which the flat sweep does not cover either.
    if (
        type(state) is InternedArray
        and math.perm(n, depth) > _REFERENCE_MAX_CHAINS
    ):
        winner = _flat_sweep_index(state, normalise, ordered, rank, default)
        observer = _obs.ACTIVE
        if winner is not None:
            if observer is not None:
                observer.count("eig.kernel.flat")
            return ordered[winner]
        if observer is not None:
            observer.count("eig.kernel.fallback")

    # Chains are reverse-chronological array paths with distinct
    # labels; a chain's resolution is Lynch's newval on the
    # corresponding EIG node.  Computed bottom-up: one depth-first
    # descent of the (structurally shared) array reads every
    # full-length chain's leaf at O(1) amortized per chain — chains
    # sharing an array-path prefix share the descent — then each
    # shrink pass tallies length-``l + 1`` resolutions under their
    # length-``l`` suffix, since extending a chain *prepends* the
    # later relayer in array-path order.
    resolved: Dict[Chain, Value] = {}

    def record_leaves(node: Any, path: Chain) -> None:
        if len(path) == depth:
            resolved[path] = normalise(node)
            return
        for relayer in range(1, n + 1):
            if relayer in path:
                continue
            record_leaves(node[relayer - 1], path + (relayer,))

    record_leaves(state, ())

    for _ in range(depth):
        tallies: Dict[Chain, Dict[Hashable, int]] = {}
        for chain, vote in resolved.items():
            suffix = chain[1:]
            tally = tallies.get(suffix)
            if tally is None:
                tally = tallies[suffix] = {}
            tally[vote] = tally.get(vote, 0) + 1
        resolved = {}
        for suffix, tally in tallies.items():
            children = n - len(suffix)
            best_value, best_count = default, 0
            for vote, count in tally.items():
                if count > best_count or (
                    count == best_count
                    and best_count > 0
                    and rank.get(vote, unranked) < rank.get(best_value, unranked)
                ):
                    best_value, best_count = vote, count
            resolved[suffix] = (
                best_value if best_count * 2 > children else default
            )

    return resolved[()]


#: Leaf types the flat sweep handles.  Exact types only (no
#: subclasses): these are the builtins whose equality, hash and repr
#: are all consistent with each other, which the collision check in
#: :func:`_flat_sweep_index` relies on.
_FLAT_VOTE_TYPES = (bool, int, float, str, bytes, type(None))

#: Leaf classes whose equality implies an identical repr and pickle.
#: ``float`` is not one (``0.0 == -0.0``); see :func:`_votes_unambiguous`.
_EXACT_EQUALITY_TYPES = (bool, int, str, bytes, type(None))

#: Interned nodes left by the dominant-child walk with at most this
#: many distinct-label chains (``n! / (n - depth)!``) take the
#: reference sweep.  The two sweeps
#: break even near 24 chains (n=4, depth 3); at 12 chains the tables
#: cost more than the walk, at 210 (n=7, depth 3) the flat sweep is
#: several times faster (docs/perf.md, "Cold start — measured").
_REFERENCE_MAX_CHAINS = 24

_MISSING = object()


def _votes_unambiguous(votes: Sequence[Any]) -> bool:
    """Whether no two value-equal votes can be told apart.

    A tally merges value-equal votes under the first object a chain
    records, so a resolution that names its winner another way (the
    flat tables, the dominant-child walk) returns the reference's
    object only when value-equal votes are indistinguishable.  Two
    ways they can differ: across classes (``True`` vs ``1``, both
    visible among a state's typed leaves, so compared here), and
    within one class.  The store's typed-leaf key cannot see the
    latter — ``(float, 0.0) == (float, -0.0)`` — so a float zero is
    refused outright, as is any class other than the exact builtins
    of ``_EXACT_EQUALITY_TYPES`` that defines its own equality.
    """
    representative: Dict[Any, Any] = {}
    for vote in votes:
        try:
            prior = representative.setdefault(vote, vote)
        except TypeError:  # an unhashable default: no tally can hold it
            continue
        cls = vote.__class__
        if prior.__class__ is not cls:
            return False
        if cls is float:
            if vote == 0.0:
                return False
        elif cls not in _EXACT_EQUALITY_TYPES and cls.__eq__ is not object.__eq__:
            return False
    return True


def _dominant_child(node: InternedArray, depth: int, n: int) -> Any:
    """The component of ``node`` (of ``depth``) that fills more than
    ``(n + depth - 1) / 2`` of its slots, or ``_MISSING``.  Components
    are canonical nodes (told apart by identity) above depth 1 and
    typed leaves at it."""
    if depth > 1:
        keys = [component.key_token for component in node]
    else:
        keys = [(component.__class__, component) for component in node]
    key, filled = Counter(keys).most_common(1)[0]
    if 2 * filled <= n + depth - 1:
        return _MISSING
    return node[keys.index(key)]


def _flat_sweep_index(
    state: InternedArray,
    normalise: Callable[[Any], Value],
    ordered: List[Hashable],
    rank: Dict[Hashable, int],
    default: Value,
) -> Optional[int]:
    """``ordered``-index of the flat-kernel winner, or ``None``.

    ``None`` sends the caller to the reference sweep.  That happens
    when a vote is not a plain scalar builtin, or when value-equal
    votes may be distinguishable (:func:`_votes_unambiguous`): the
    reference tallies merge such votes under whichever object a chain
    records first, an order the tables do not track, so only the
    reference sweep reproduces those bytes.
    """
    votes = [default]
    for _, leaf in state.leaves_unique:
        votes.append(normalise(leaf))
    if not all(
        type(vote) in _FLAT_VOTE_TYPES for vote in votes
    ) or not _votes_unambiguous(votes):
        return None
    import numpy as np

    from repro.arrays import flat

    tables = flat.tables_for(state.store)
    tables.sync()
    default_index = rank[default]
    vote_of_code = np.full(
        tables.leaf_alphabet_size, default_index, dtype=np.int64
    )
    for position, (typed_class, leaf) in enumerate(state.leaves_unique):
        code = tables.code_of((typed_class, leaf))
        assert code is not None  # sync() mirrored every leaf of state
        vote_of_code[code] = rank[votes[position + 1]]
    return flat.eig_sweep(state, vote_of_code, len(ordered), default_index)


def check_eig_sweep_size(n: int, t: int) -> None:
    """Refuse ``n``, ``t`` before a run when its EIG decision would
    sweep more chains than :data:`repro.arrays.flat.MAX_SWEEP_CHAINS`.

    Raises :class:`~repro.errors.ConfigurationError`, building nothing.
    A system of at most ``_REFERENCE_MAX_CHAINS`` chains never reaches
    the tables, so it does not import them (or numpy) either.
    """
    if math.perm(n, t + 1) > _REFERENCE_MAX_CHAINS:
        from repro.arrays.flat import refuse_oversized_tables

        refuse_oversized_tables(n, t + 1)


def make_eig_decision_rule(
    t: int, default: Value, alphabet: Optional[Sequence[Value]] = None
) -> Callable[[Any, int, ProcessId], Value]:
    """A ``DecisionRule`` that fires at simulated round ``t + 1``."""

    def rule(state: Any, simulated_round: int, process_id: ProcessId) -> Value:
        if simulated_round < t + 1:
            return BOTTOM
        if isinstance(state, tuple):
            n = len(state)
        else:
            return BOTTOM
        return eig_byzantine_decision(
            state, n, t, process_id, default=default, alphabet=alphabet
        )

    return rule
