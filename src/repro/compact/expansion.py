"""Expansion functions ``phi_{b,r,p}`` (Section 5.3).

At each round each correct processor computes expansion functions from
the results of the avalanche agreement subprotocols it has run.  For
block 1 the expansion is the identity on value arrays; for ``b > 1``
it is the substitutive partial function on index arrays defined on
scalars by::

    phi_b(x) = phi_{b-1}(OUT[b][x])

where ``OUT[b][x]`` is the avalanche-agreed end-of-block-``b - 1``
CORE of processor ``x``.  A scalar outside the function's domain
(a non-value for ``b = 1``, a non-index or an index with no decided
OUT for ``b > 1``) expands to bottom, and by the paper's convention
one bottom component makes the whole expansion bottom.

The state of all OUT tables lives in :class:`ExpansionState`; the
functions get *more defined* over time as avalanche decisions land
(never less — decisions are irrevocable), which is why defined
expansion results can be memoised safely while undefined ones must
not be.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Sequence, Tuple

import repro.obs.core as _obs
from repro.arrays import flat as _flat
from repro.arrays import persist as _persist
from repro.arrays.digest import (
    DIGEST_BYTES,
    content_digest,
    value_digest,
    values_fingerprint,
)
from repro.arrays.partial import substitutive_apply
from repro.arrays.store import ArrayStore, InternedArray
from repro.errors import ProtocolViolation
from repro.types import BOTTOM, ProcessId, SystemConfig, Value, is_bottom

#: Protoflow taint: the persistent-cache fast path replays *recorded
#: verdicts*, never raw bytes.  A phi_1 entry is the alphabet-
#: membership verdict the inline filter would compute (keyed by the
#: node's content digest under the alphabet fingerprint), and a deeper
#: entry resolves only through the content digest of a result that a
#: fully legality-filtered expansion produced in an earlier run —
#: anything else decodes to ``None`` and falls back to the inline
#: filter.
TAINT_SANITIZERS = {
    "_restore_expansion": (
        "persistent-cache gate: returns the node only under a "
        "recorded phi_1 alphabet verdict, a digest-resolved prior "
        "expansion result, or None (= recompute through the inline "
        "legality filter)"
    ),
}


class ExpansionState:
    """OUT tables plus memoised expansion, for one processor."""

    def __init__(
        self,
        config: SystemConfig,
        value_alphabet: Sequence[Value],
        store: Optional[ArrayStore] = None,
    ):
        self.config = config
        self._alphabet = frozenset(value_alphabet)
        self._store = store
        # (boundary, sender) -> agreed end-of-block CORE of sender.
        self._out: Dict[Tuple[int, ProcessId], Any] = {}
        # (boundary, array) -> defined expansion result.
        self._cache: Dict[Tuple[int, Any], Any] = {}
        # (boundary, canonical-node key token) -> defined expansion.
        # Canonical sub-arrays are shared across senders and rounds, so
        # this memo turns re-expansion of an already-seen CORE into one
        # dictionary hit per *new* node instead of a full tree walk.
        self._node_cache: Dict[Tuple[int, Any], Any] = {}
        # (boundary, index scalar) -> defined phi_b(scalar).  Same
        # defined-results-only rule: a defined scalar expansion chains
        # only through irrevocable OUT entries, so it never changes,
        # while an undefined one may become defined later.
        self._scalar_cache: Dict[Tuple[int, int], Any] = {}
        # Cross-run persistence keys.  phi_1 verdicts depend only on
        # the alphabet; phi_b for b > 1 is additionally a function of
        # the OUT tables it chains through, so its cache entries carry
        # a fingerprint over every decided (boundary' <= b) slot —
        # equal tables, reached in any order, share entries; unequal
        # tables can never collide.  None alphabet fingerprint means
        # unstable members: persistence stays out of the way.
        self._alpha_fp: Optional[str] = values_fingerprint(self._alphabet)
        self._out_digests: Dict[Tuple[int, ProcessId], Optional[bytes]] = {}
        self._out_fp_cache: Dict[int, Optional[str]] = {}

    # -- OUT table maintenance ---------------------------------------------

    def set_out(self, boundary: int, sender: ProcessId, value: Any) -> None:
        """Record an avalanche decision ``OUT[boundary][sender]``.

        Decisions are irrevocable; recording a *different* value for
        the same slot indicates a broken avalanche layer and raises.
        """
        key = (boundary, sender)
        if key in self._out and self._out[key] != value:
            raise ProtocolViolation(
                f"OUT[{boundary}][{sender}] changed from "
                f"{self._out[key]!r} to {value!r}"
            )
        self._out[key] = value
        self._out_digests[key] = value_digest(value)
        self._out_fp_cache.clear()

    def out(self, boundary: int, sender: ProcessId) -> Any:
        """The agreed value, or bottom if this slot has not decided."""
        return self._out.get((boundary, sender), BOTTOM)

    def has_out(self, boundary: int, sender: ProcessId) -> bool:
        """Whether the avalanche slot has decided at this processor."""
        return (boundary, sender) in self._out

    def out_table(self, boundary: int) -> Dict[ProcessId, Any]:
        """All decided slots of one boundary (a snapshot)."""
        return {
            sender: value
            for (slot_boundary, sender), value in self._out.items()
            if slot_boundary == boundary
        }

    # -- expansion ---------------------------------------------------------

    def expand_scalar(self, boundary: int, scalar: Any) -> Any:
        """``phi_b`` on a scalar; bottom when outside the domain."""
        if boundary == 1:
            try:
                return scalar if scalar in self._alphabet else BOTTOM
            except TypeError:
                return BOTTOM
        if (
            not isinstance(scalar, int)
            or isinstance(scalar, bool)
            or not 1 <= scalar <= self.config.n
        ):
            return BOTTOM
        cached = self._scalar_cache.get((boundary, scalar))
        if cached is not None:
            return cached
        agreed = self._out.get((boundary, scalar))
        if agreed is None:
            return BOTTOM
        result = self.expand(boundary - 1, agreed)
        if not is_bottom(result):
            self._scalar_cache[(boundary, scalar)] = result
        return result

    def expand(self, boundary: int, array: Any) -> Any:
        """``phi_b`` applied substitutively to an array.

        Returns the value array the compressed ``array`` stands for,
        or bottom if any leaf is (currently) outside the domain.
        """
        if is_bottom(array):
            return BOTTOM
        if (
            self._store is not None
            and type(array) is InternedArray
            and array.store is self._store
        ):
            return self._expand_interned(boundary, array)
        cache_key: Optional[Tuple[int, Any]]
        try:
            cache_key = (boundary, array)
            if cache_key in self._cache:
                return self._cache[cache_key]
        except TypeError:
            cache_key = None
        result = substitutive_apply(
            lambda scalar: self.expand_scalar(boundary, scalar), array
        )
        if cache_key is not None and not is_bottom(result):
            # Defined results are stable: OUT entries never change.
            # Undefined results may become defined later, so they are
            # deliberately not cached.
            self._cache[cache_key] = result
        return result

    def _out_fingerprint(self, boundary: int) -> Optional[str]:
        """Hex fingerprint of every decided OUT slot phi_b can reach.

        Order-insensitive over slots (sorted), covering boundaries
        ``2..boundary`` — exactly the entries a boundary-``boundary``
        expansion chains through.  ``None`` (poisoned) when any
        reachable slot holds an undigestable value.
        """
        cached = self._out_fp_cache.get(boundary)
        if cached is not None or boundary in self._out_fp_cache:
            return cached
        hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
        fingerprint: Optional[str]
        slots = sorted(
            slot for slot in self._out_digests if 2 <= slot[0] <= boundary
        )
        for slot_boundary, sender in slots:
            digest = self._out_digests[(slot_boundary, sender)]
            if digest is None:
                fingerprint = None
                break
            hasher.update(f"{slot_boundary}.{sender}.".encode("ascii"))
            hasher.update(digest)
        else:
            fingerprint = hasher.hexdigest()
        self._out_fp_cache[boundary] = fingerprint
        return fingerprint

    def _persist_key(
        self, boundary: int, node: InternedArray
    ) -> Optional[Tuple[str, str]]:
        """(fingerprint detail, key) for a persistable expansion."""
        if self._alpha_fp is None:
            return None
        digest = content_digest(node)
        if digest is None:
            return None
        if boundary == 1:
            detail = (
                f"compact.phi1;n={self.config.n};alpha={self._alpha_fp}"
            )
        else:
            out_fp = self._out_fingerprint(boundary)
            if out_fp is None:
                return None
            detail = (
                f"compact.expansion;n={self.config.n};"
                f"alpha={self._alpha_fp};b={boundary};out={out_fp}"
            )
        return detail, digest.hex()

    def _restore_expansion(
        self,
        cache: "_persist.PersistentStore",
        boundary: int,
        node: InternedArray,
        stored: Any,
    ) -> Optional[Any]:
        """Decode a persisted expansion entry; ``None`` = treat as miss.

        phi_1 entries are booleans (the node is its own expansion, or
        bottom); deeper entries are the content-digest hex of the
        result node, resolvable only if the cache has the live node —
        otherwise recomputing is cheaper than trusting a dangling ref.
        """
        if boundary == 1:
            if stored is True:
                return node
            if stored is False:
                return BOTTOM
            return None
        if isinstance(stored, str) and self._store is not None:
            return cache.node_for(self._store, stored)
        return None

    def _expand_interned(self, boundary: int, node: InternedArray) -> Any:
        """``phi_b`` over the canonical DAG, memoised per unique node.

        Same defined-results-only caching rule as :meth:`expand`: OUT
        entries are irrevocable, so a defined expansion never changes,
        while an undefined one may become defined as decisions land.
        The persistent cache follows the same rule, except phi_1
        *negative* verdicts are persisted too (alphabet membership
        never changes, so they are stable — mirroring the flat
        kernel's verdict column).
        """
        key = (boundary, node.key_token)
        cached = self._node_cache.get(key)
        if cached is not None:
            observer = _obs.ACTIVE
            if observer is not None:
                observer.count("compact.expansion.hit")
            return cached
        cache = _persist.active()
        persist_key: Optional[Tuple[str, str]] = None
        if cache is not None:
            persist_key = self._persist_key(boundary, node)
            if persist_key is not None:
                stored = cache.map_get(persist_key[0], persist_key[1])
                if stored is not _persist.MISSING:
                    restored = self._restore_expansion(
                        cache, boundary, node, stored
                    )
                    if restored is not None:
                        if not is_bottom(restored):
                            self._node_cache[key] = restored
                        return restored
        if boundary == 1:
            # phi_1 is the identity on value arrays; the node IS its
            # own expansion when every distinct leaf is a value.
            # Served from the store's per-alphabet verdict column:
            # unlike the node cache (defined results only), the
            # column may keep negative verdicts too, because
            # alphabet membership never changes.
            ok = _flat.tables_for(node.store).leaves_ok(
                node,
                ("expansion.alphabet", self._alphabet),
                self._leaf_is_value,
            )
            result: Any = node if ok else BOTTOM
        else:
            # Substitutive prefilter: one bottom leaf bubbles all
            # the way up, so the root expansion is defined iff
            # every *distinct* leaf expands — O(distinct leaves)
            # to rule out the (frequent, uncacheable) undefined
            # case before paying for the recursive build.
            for _, leaf in node.leaves_unique:
                if is_bottom(self.expand_scalar(boundary, leaf)):
                    return BOTTOM
            expanded = []
            for component in node:
                if type(component) is InternedArray:
                    piece = self._expand_interned(boundary, component)
                else:
                    piece = self.expand_scalar(boundary, component)
                if is_bottom(piece):
                    return BOTTOM
                expanded.append(piece)
            assert self._store is not None  # guarded by expand()
            result = self._store.intern(tuple(expanded))
        if not is_bottom(result):
            self._node_cache[key] = result
            observer = _obs.ACTIVE
            if observer is not None:
                observer.count("compact.expansion.miss")
            if cache is not None and persist_key is not None:
                self._record_expansion(cache, persist_key, boundary, result)
        elif boundary == 1 and cache is not None and persist_key is not None:
            # Stable negative: alphabet membership never changes.
            cache.map_put(persist_key[0], persist_key[1], False)
        return result

    def _record_expansion(
        self,
        cache: "_persist.PersistentStore",
        persist_key: Tuple[str, str],
        boundary: int,
        result: Any,
    ) -> None:
        if boundary == 1:
            cache.map_put(persist_key[0], persist_key[1], True)
            return
        if type(result) is not InternedArray or self._store is None:
            return
        digest_hex = cache.register_node(self._store, result)
        if digest_hex is not None:
            cache.map_put(persist_key[0], persist_key[1], digest_hex)

    def _leaf_is_value(self, leaf: Any) -> bool:
        """Whether one leaf is in ``V`` (the ``phi_1`` domain test)."""
        try:
            return leaf in self._alphabet
        except TypeError:  # unhashable leaf (plain-tuple path only)
            return False

    def defined(self, boundary: int, array: Any) -> bool:
        """Whether ``phi_b`` is defined on ``array`` right now."""
        return not is_bottom(self.expand(boundary, array))
