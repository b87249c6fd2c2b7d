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

None of that depends on *who* fills the table: :class:`BindingExpansion`
is what every fault model shares (the benign and authenticated variants
subclass it directly), and :class:`ExpansionState` adds the
canonical-node machinery below.

**Who remembers what.**  ``phi_b`` of a canonical node is a pure
function of the node and of the images ``phi_b(x)`` of its distinct
leaves ``x``, and those are a function of the OUT tables, which are a
function of the avalanche batch states alone.  So nothing here is per
processor.  Defined node expansions are memoised once per store, in
:attr:`repro.arrays.store.ArrayStore.expansions`, under ``(node, images
of its distinct leaves)``, until
:func:`repro.arrays.store.release_shared_stores` drops them.  The OUT
tables, the scalar images and the rebase verdicts form a *view*, shared
by every processor at the same batch states
(:func:`repro.compact.subprotocol.shared`): when a step decides
something, the next view inherits the defined images (never an
undefined verdict) and reads the new OUT entries off the batch states.
Whether ``phi_b`` is defined on a node needs no build at all — it is
defined iff it is on every distinct leaf — so validation
(:meth:`ExpansionState.defined`) costs O(distinct leaves) and only
``FULL_STATE`` pays for an expansion.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import repro.obs.core as _obs
from repro.arrays.store import ArrayStore, InternedArray, TypedLeaf
from repro.arrays.value_array import is_index_scalar
from repro.errors import ProtocolViolation
from repro.fullinfo.gate import leaves_satisfy
from repro.types import BOTTOM, ProcessId, SystemConfig, Value, is_bottom


class BindingExpansion:
    """An irrevocable binding table and the expansion functions on it.

    What every fault model's ``phi_b`` shares: a table from reference
    keys to end-of-block COREs that only grows, ``phi_1`` = membership
    in ``V``, ``phi_b(x) = phi_{b-1}(table[b, x])``, the substitutive
    recursion over plain arrays and a memo of *defined* results only.
    A fault model changes what a reference looks like and who fills
    the table.
    """

    def __init__(self, config: SystemConfig, value_alphabet: Sequence[Value]):
        self.config = config
        self._alphabet = frozenset(value_alphabet)
        # Reference key -> the end-of-block CORE it stands for; for
        # index references the key is ``(boundary, processor)``.
        self._bindings: Dict[Any, Any] = {}
        # (boundary, plain array) -> its defined expansion.
        self._cache: Dict[Tuple[int, Any], Any] = {}

    def learn(self, key: Any, value: Any) -> bool:
        """Bind ``key`` to ``value``; returns True when the key is new.

        Bindings are irrevocable.  A second, *different* value for one
        key is never legitimate traffic — a broken avalanche layer, an
        equivocation in a model that excludes it, a digest collision —
        and raises.
        """
        if key in self._bindings:
            if self._bindings[key] != value:
                raise ProtocolViolation(
                    f"binding {key} changed from {self._bindings[key]!r} "
                    f"to {value!r}"
                )
            return False
        self._bindings[key] = value
        return True

    def has(self, key: Any) -> bool:
        """Whether ``key`` is bound at this processor."""
        return key in self._bindings

    def is_reference(self, scalar: Any) -> bool:
        """Whether ``scalar`` has a reference's form: a processor index."""
        return is_index_scalar(scalar, self.config.n)

    def is_leaf(self, boundary: int, scalar: Any) -> bool:
        """Whether ``scalar`` may be a leaf of a boundary-``boundary``
        CORE: a value in block 1, a reference afterwards."""
        if boundary == 1:
            return self._leaf_is_value(scalar)
        return self.is_reference(scalar)

    def _resolve(self, boundary: int, scalar: Any) -> Any:
        """What ``scalar`` refers to at ``boundary``; ``None`` if nothing."""
        if self.is_reference(scalar):
            return self._bindings.get((boundary, scalar))
        return None

    def _leaf_is_value(self, leaf: Any) -> bool:
        """Whether one leaf is in ``V`` (the ``phi_1`` domain test).

        A tuple is an array level, never a value — and is not hashed
        to find that out: a Byzantine one may be nested without bound.
        """
        try:
            return not isinstance(leaf, tuple) and leaf in self._alphabet
        except TypeError:  # unhashable leaf
            return False

    def expand_scalar(self, boundary: int, scalar: Any) -> Any:
        """``phi_b`` on a scalar; bottom when outside the domain."""
        if boundary == 1:
            return scalar if self._leaf_is_value(scalar) else BOTTOM
        bound = self._resolve(boundary, scalar)
        if bound is None:
            return BOTTOM
        return self.expand(boundary - 1, bound)

    def expand(self, boundary: int, array: Any) -> Any:
        """``phi_b`` applied substitutively to an array.

        Returns the value array the compressed ``array`` stands for,
        or bottom if any leaf is (currently) outside the domain.
        """
        return self._expand_plain(boundary, array)

    def _expand_plain(self, boundary: int, array: Any) -> Any:
        if is_bottom(array):
            return BOTTOM
        if not isinstance(array, tuple) or self.is_reference(array):
            return self.expand_scalar(boundary, array)
        cache_key: Optional[Tuple[int, Any]]
        try:
            cache_key = (boundary, array)
            if cache_key in self._cache:
                return self._cache[cache_key]
        except TypeError:
            cache_key = None
        components = []
        for component in array:
            image = self._expand_plain(boundary, component)
            if is_bottom(image):
                # Undefined now may be defined once more bindings
                # land, so it is deliberately not remembered.
                return BOTTOM
            components.append(image)
        expanded = tuple(components)
        if cache_key is not None:
            # Defined results are stable: bindings never change.
            self._cache[cache_key] = expanded
        return expanded

    def defined(self, boundary: int, array: Any) -> bool:
        """Whether ``phi_b`` is defined on ``array`` right now."""
        return not is_bottom(self.expand(boundary, array))


class ExpansionState(BindingExpansion):
    """OUT tables and the expansion functions they define: one view.

    The bindings are avalanche decisions, read back under the key
    ``(boundary, sender)``.  A view never changes its OUT tables once
    processors share it: :meth:`extended` makes the next one, and
    :meth:`learn` is for a view nobody shares.  On top of the table sit
    the canonical-node fast paths described above.
    """

    def __init__(
        self,
        config: SystemConfig,
        value_alphabet: Sequence[Value],
        store: ArrayStore,
    ):
        super().__init__(config, value_alphabet)
        self._store = store
        # boundary -> typed index leaf -> (defined phi_b(leaf), its
        # memo token): the canonical images these OUT tables give the
        # index leaves.  A defined scalar expansion chains only through
        # irrevocable OUT entries, so it never changes, while an
        # undefined one may become defined later and is not remembered.
        self._images: Dict[int, Dict[TypedLeaf, Tuple[Any, Any]]] = (
            defaultdict(dict)
        )
        # boundary -> per processor q, whether phi_b(q) is defined: an
        # answer for these OUT tables only, undefined verdicts included.
        self._masks: Dict[int, Tuple[bool, ...]] = {}

    @classmethod
    def empty(
        cls, config: SystemConfig, value_alphabet: Sequence[Value], store: ArrayStore
    ) -> "ExpansionState":
        """The OUT-less view every processor of a run starts at."""
        key = (config, frozenset(value_alphabet), store)
        view = _EMPTY.get(key)
        if view is None:
            view = _EMPTY[key] = cls(config, value_alphabet, store)
        return view

    def learn(self, key: Any, value: Any) -> bool:
        self._masks.clear()  # a new binding may define a masked image
        return super().learn(key, value)

    def extended(self, fresh: Iterable[Tuple[int, ProcessId, Any]]) -> "ExpansionState":
        """The next view: these OUT tables plus the ``(boundary,
        subject, decision)`` entries of ``fresh``.

        It inherits the defined images and expansions, which no later
        binding can change, and no rebase mask, whose undefined verdicts
        one can.
        """
        view = object.__new__(type(self))
        view.__dict__ = dict(
            self.__dict__,
            _bindings=dict(self._bindings),
            _cache=dict(self._cache),
            _images=defaultdict(dict, {
                boundary: dict(images) for boundary, images in self._images.items()
            }),
            _masks={},
        )
        for boundary, subject, value in fresh:
            view.learn((boundary, subject), value)
        return view

    def out_tables(self) -> Dict[int, Dict[ProcessId, Any]]:
        """Every boundary's decided slots, in one pass (a snapshot)."""
        tables: Dict[int, Dict[ProcessId, Any]] = {}
        for (boundary, sender), value in self._bindings.items():
            tables.setdefault(boundary, {})[sender] = value
        return tables

    def rebase_mask(self, boundary: int) -> Tuple[bool, ...]:
        """Per processor ``q``, whether ``phi_boundary(q)`` is defined."""
        mask = self._masks.get(boundary)
        if mask is None:
            mask = self._masks[boundary] = tuple(
                self.expand_scalar(boundary, q) is not BOTTOM
                for q in self.config.process_ids
            )
        return mask

    # -- expansion ---------------------------------------------------------

    def expand_scalar(self, boundary: int, scalar: Any) -> Any:
        # The base rule with each defined image remembered (and the
        # index test and table lookup inline: this is the rebase path).
        if boundary == 1:
            return super().expand_scalar(1, scalar)
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
        agreed = self._bindings.get((boundary, scalar))
        if agreed is None:
            return BOTTOM
        result = self.expand(boundary - 1, agreed)
        if is_bottom(result):
            return BOTTOM
        if isinstance(result, tuple) and not self._is_canonical(result):
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
        if not self._is_canonical(array):
            return self._expand_plain(boundary, array)
        if not self._node_defined(boundary, array):
            return BOTTOM
        if boundary > 1:
            return self._substitute(boundary, array)
        # phi_1 is the identity on value arrays: nothing to build.
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count("compact.expansion.hit")
        return array

    def defined(self, boundary: int, array: Any) -> bool:
        if self._is_canonical(array):
            return self._node_defined(boundary, array)
        return super().defined(boundary, array)

    def _node_defined(self, boundary: int, node: InternedArray) -> bool:
        """:meth:`defined` on a canonical node, which builds nothing.

        One bottom leaf bubbles all the way up, so the expansion is
        defined iff every *distinct* leaf expands: for ``phi_1`` iff
        every leaf is a value, otherwise iff every leaf has an image
        here already or gets one now.
        """
        if boundary == 1:
            # The verdict the block-1 receive gate asks for, shared
            # with it through the store.
            return leaves_satisfy(
                node, ("alphabet", self._alphabet), self._leaf_is_value
            )
        return all(
            map(self._images[boundary].__contains__, node.leaves_unique)
        ) or all(
            self.expand_scalar(boundary, leaf) is not BOTTOM
            for _, leaf in node.leaves_unique
        )

    def _is_canonical(self, array: Any) -> bool:
        return type(array) is InternedArray and array.store is self._store

    def _substitute(self, boundary: int, node: InternedArray) -> Any:
        """``phi_b`` (``b > 1``) of a node whose leaves all have images.

        Memoised per unique node on the store the node lives in, under
        the images of the node's own distinct leaves — everything the
        result depends on — so processors whose OUT tables agree share
        one build.  Only defined results get here, so nothing
        undefined is ever memoised.
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
        result = store.expansions[key] = store.intern(tuple(
            self._substitute(boundary, component)
            if type(component) is InternedArray
            else images[(component.__class__, component)][0]
            for component in node
        ))
        if observer is not None:
            observer.count("compact.expansion.miss")
        return result


#: Empty views by ``(config, alphabet, store)``, held weakly.
_EMPTY: "weakref.WeakValueDictionary[Any, ExpansionState]" = (
    weakref.WeakValueDictionary()
)
