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

**Who remembers what.**  ``phi_b`` of a canonical node is a pure
function of the node and of the images ``phi_b(x)`` of its distinct
leaves ``x`` — the OUT tables enter only through those images.  By the
avalanche condition correct processors' OUT tables agree, so the
``n - t`` of them would each rebuild and re-intern the very same
expansions; instead defined results are memoised once per store, in
:attr:`repro.arrays.store.ArrayStore.expansions`, under
``(node, images of its distinct leaves)``, and shared by every
processor (and every execution) on that store until
:func:`repro.arrays.store.release_shared_stores` drops it.  What stays
per processor is what genuinely is: the OUT table and the scalar images
``phi_b(q)`` it currently defines.  Whether ``phi_b`` is defined on a
node needs no build at all — it is defined iff it is on every distinct
leaf — so validation (:meth:`ExpansionState.defined`) costs
O(distinct leaves) and only ``FULL_STATE`` pays for an expansion.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
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
from repro.arrays.store import ArrayStore, InternedArray, TypedLeaf
from repro.errors import ProtocolViolation
from repro.types import BOTTOM, ProcessId, SystemConfig, Value, is_bottom

#: Protoflow taint: the persistent-cache fast path replays *recorded
#: verdicts*, never raw bytes.  A phi_1 entry is the alphabet-
#: membership verdict the inline filter would compute (keyed by the
#: node's content digest under the alphabet fingerprint; only a bool
#: is believed), and a deeper entry resolves only through the content
#: digest of a result that a fully legality-filtered expansion
#: produced in an earlier run — anything else decodes to ``None`` and
#: falls back to the inline filter.
TAINT_SANITIZERS = {
    "_restore_expansion": (
        "persistent-cache gate: returns a node only as the "
        "digest-resolved result of a prior expansion, else None "
        "(= recompute through the inline legality filter)"
    ),
}


class ExpansionState:
    """OUT tables and the expansion functions they define, for one processor."""

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
        # (boundary, array) -> defined expansion of a plain (not
        # canonical) array.  Canonical nodes are memoised store-wide.
        self._cache: Dict[Tuple[int, Any], Any] = {}
        # boundary -> typed index leaf -> (defined phi_b(leaf), its
        # memo token): the images this processor's OUT table gives the
        # index leaves, canonical whenever there is a store.  A defined
        # scalar expansion chains only through irrevocable OUT entries,
        # so it never changes, while an undefined one may become
        # defined later and is not remembered.
        self._images: Dict[int, Dict[TypedLeaf, Tuple[Any, Any]]] = (
            defaultdict(dict)
        )
        # Cross-run persistence keys.  phi_1 verdicts depend only on
        # the alphabet; phi_b for b > 1 is additionally a function of
        # the OUT tables it chains through, so its cache entries carry
        # a fingerprint over every decided (boundary' <= b) slot —
        # equal tables, reached in any order, share entries; unequal
        # tables can never collide.  None alphabet fingerprint means
        # unstable members: persistence stays out of the way.
        self._alpha_fp: Optional[str] = values_fingerprint(self._alphabet)
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
            return scalar if self._leaf_is_value(scalar) else BOTTOM
        if (
            not isinstance(scalar, int)
            or isinstance(scalar, bool)
            or not 1 <= scalar <= self.config.n
        ):
            return BOTTOM
        typed_leaf = (scalar.__class__, scalar)
        cached = self._images[boundary].get(typed_leaf)
        if cached is not None:
            return cached[0]
        agreed = self._out.get((boundary, scalar))
        if agreed is None:
            return BOTTOM
        result = self.expand(boundary - 1, agreed)
        if is_bottom(result):
            return BOTTOM
        if (
            self._store is not None
            and isinstance(result, tuple)
            and not self._is_canonical(result)
        ):
            # A plain OUT entry expands to a plain tuple; any array
            # it is substituted into would canonicalise it anyway.
            result = self._store.intern(result)
        token = (
            result.key_token if type(result) is InternedArray
            else (result.__class__, result)
        )
        self._images[boundary][typed_leaf] = (result, token)
        return result

    def expand(self, boundary: int, array: Any) -> Any:
        """``phi_b`` applied substitutively to an array.

        Returns the value array the compressed ``array`` stands for,
        or bottom if any leaf is (currently) outside the domain.
        """
        if is_bottom(array):
            return BOTTOM
        if self._is_canonical(array):
            if not self._node_defined(boundary, array):
                return BOTTOM
            if boundary > 1:
                return self._substitute(boundary, array)
            # phi_1 is the identity on value arrays: nothing to build.
            observer = _obs.ACTIVE
            if observer is not None:
                observer.count("compact.expansion.hit")
            return array
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

    def defined(self, boundary: int, array: Any) -> bool:
        """Whether ``phi_b`` is defined on ``array`` right now."""
        if self._is_canonical(array):
            return self._node_defined(boundary, array)
        return not is_bottom(self.expand(boundary, array))

    def _node_defined(self, boundary: int, node: InternedArray) -> bool:
        """:meth:`defined` on a canonical node, which builds nothing.

        One bottom leaf bubbles all the way up, so the expansion is
        defined iff every *distinct* leaf expands: for ``phi_1`` iff
        every leaf is a value, otherwise iff every leaf has an image
        here already or gets one now.
        """
        if boundary == 1:
            return self._values_only(node)
        return all(
            map(self._images[boundary].__contains__, node.leaves_unique)
        ) or all(
            self.expand_scalar(boundary, leaf) is not BOTTOM
            for _, leaf in node.leaves_unique
        )

    def _is_canonical(self, array: Any) -> bool:
        return (
            type(array) is InternedArray
            and self._store is not None
            and array.store is self._store
        )

    def _values_only(self, node: InternedArray) -> bool:
        """Whether every leaf of ``node`` is in ``V`` (``phi_1``'s domain).

        Served from the store's per-alphabet verdict column, which —
        like the persistent cache in front of it — may keep negative
        verdicts too: alphabet membership never changes.
        """
        cache = _persist.active()
        persist_key = None if cache is None else self._persist_key(1, node)
        if persist_key is not None:
            stored = cache.map_get(persist_key[0], persist_key[1])
            if isinstance(stored, bool):  # anything else: recompute
                return stored
        ok = _flat.tables_for(node.store).leaves_ok(
            node, ("expansion.alphabet", self._alphabet), self._leaf_is_value
        )
        if persist_key is not None:
            cache.map_put(persist_key[0], persist_key[1], ok)
        return ok

    def _substitute(self, boundary: int, node: InternedArray) -> Any:
        """``phi_b`` (``b > 1``) of a node whose leaves all have images.

        Memoised per unique node on the store the node lives in, under
        the images of the node's own distinct leaves — everything the
        result depends on — so processors whose OUT tables agree share
        one build.  Only defined results get here, so nothing
        undefined is ever memoised, in memory or in the persistent
        cache behind it.
        """
        store = node.store
        images = self._images[boundary]
        key = (
            node.key_token,
            tuple([images[leaf][1] for leaf in node.leaves_unique]),
        )
        observer = _obs.ACTIVE
        result = store.expansions.get(key)
        if result is not None:
            if observer is not None:
                observer.count("compact.expansion.hit")
            return result
        cache = _persist.active()
        persist_key = (
            None if cache is None else self._persist_key(boundary, node)
        )
        if persist_key is not None:
            stored = cache.map_get(persist_key[0], persist_key[1])
            result = self._restore_expansion(cache, stored)
        if result is None:
            result = store.intern(tuple(
                self._substitute(boundary, component)
                if type(component) is InternedArray
                else images[(component.__class__, component)][0]
                for component in node
            ))
            if observer is not None:
                observer.count("compact.expansion.miss")
            if persist_key is not None:
                digest_hex = cache.register_node(store, result)
                if digest_hex is not None:
                    cache.map_put(persist_key[0], persist_key[1], digest_hex)
        store.expansions[key] = result
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
        for slot in sorted(s for s in self._out if 2 <= s[0] <= boundary):
            digest = value_digest(self._out[slot])
            if digest is None:
                fingerprint = None
                break
            hasher.update(f"{slot[0]}.{slot[1]}.".encode("ascii"))
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
        self, cache: "_persist.PersistentStore", stored: Any
    ) -> Optional[Any]:
        """Decode a persisted ``phi_b`` (``b > 1``) entry; ``None`` = miss.

        Entries are the content-digest hex of the result node,
        resolvable only if the cache has the live node — otherwise
        recomputing is cheaper than trusting a dangling ref.
        """
        if isinstance(stored, str) and self._store is not None:
            return cache.node_for(self._store, stored)
        return None

    def _leaf_is_value(self, leaf: Any) -> bool:
        """Whether one leaf is in ``V`` (the ``phi_1`` domain test)."""
        try:
            return leaf in self._alphabet
        except TypeError:  # unhashable leaf (plain-tuple path only)
            return False
