"""Exact bit accounting for protocol messages (Section 5.6 costs).

The paper measures communication in *message bits*, with every bound
carrying a ``log |V|`` factor for value leaves; index leaves cost
``log n``.  We never serialise hot-path traffic — messages travel as
Python objects — but every message is *measured* as if encoded:

* a scalar value leaf costs ``ceil(log2 |V|)`` bits (minimum 1),
* a scalar index leaf costs ``ceil(log2 n)`` bits (minimum 1),
* an array costs the sum of its leaves plus a small self-delimiting
  header (:data:`HEADER_BITS` per array node) covering shape framing,
* :data:`repro.types.BOTTOM` and the null message of the avalanche
  coding convention (Section 4) cost :data:`NULL_BITS` = 0 bits,
  matching the paper's "at a cost of 0 bits",
* a tuple-of-subprotocol-components message (Section 5.2) costs the
  sum of its components.

These constants make measured totals reproducible and comparable with
the paper's asymptotic claims; EXPERIMENTS.md reports both.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

from repro.arrays import flat as _flat
from repro.arrays.store import InternedArray
from repro.errors import EncodingError
from repro.types import is_bottom

# Framing overhead charged once per composite (tuple) node.  Covers a
# length/shape marker; a constant so that totals stay within the
# paper's O(.) bounds (each node adds O(1) bits per child pointer-free
# preorder encoding).
HEADER_BITS = 2

# Cost of the null message under the avalanche coding convention and of
# an absent (bottom) component.
NULL_BITS = 0


def bits_for_alphabet(size: int) -> int:
    """Bits needed to name one element of an alphabet of ``size``.

    ``ceil(log2 size)``, with a floor of 1 bit so that even a unary
    alphabet is charged something when actually transmitted.
    """
    if size < 1:
        raise EncodingError(f"alphabet size must be positive, got {size}")
    if size == 1:
        return 1
    return math.ceil(math.log2(size))


def _interned_node_count(array: InternedArray) -> int:
    """Tuple nodes in the tree an interned array stands for.

    A well-shaped depth-``d`` array over ``n`` ids has
    ``1 + n + ... + n**(d-1) = (n**d - 1) / (n - 1)`` tuple nodes
    (``d`` nodes when ``n == 1``); ``leaf_count`` is ``n ** d``, so
    the count is O(1) arithmetic on precomputed metadata.
    """
    n = len(array)
    if n == 1:
        return array.depth
    return (array.leaf_count - 1) // (n - 1)


def encoded_array_bits(array: Any, leaf_bits: int) -> int:
    """Measured size of a nested-tuple array with uniform leaf cost.

    For an interned array with no :data:`~repro.types.BOTTOM` leaves
    the size is closed-form (every leaf costs ``leaf_bits``, every
    tuple node :data:`HEADER_BITS`), so measurement is O(1) instead of
    O(``n ** depth``) — bottoms cost 0 bits, so undefined interned
    arrays read the store's flat size column, and plain tuples are
    walked.
    """
    if is_bottom(array):
        return NULL_BITS
    if isinstance(array, InternedArray):
        if array.defined:
            return (
                array.leaf_count * leaf_bits
                + _interned_node_count(array) * HEADER_BITS
            )
        # Undefined arrays need per-leaf costs (bottoms are free);
        # the flat column batches that instead of walking the tree.
        return _flat.tables_for(array.store).measured_bits(
            array,
            ("uniform", leaf_bits),
            lambda leaf: NULL_BITS if is_bottom(leaf) else leaf_bits,
            HEADER_BITS,
        )
    if isinstance(array, tuple):
        return HEADER_BITS + sum(
            encoded_array_bits(component, leaf_bits) for component in array
        )
    return leaf_bits


def encoded_message_bits(message: Any, leaf_bits: Callable[[Any], int]) -> int:
    """Measured size with a per-leaf cost function.

    ``leaf_bits`` receives each scalar leaf and returns its bit cost;
    use this when a message mixes value leaves and index leaves.
    """
    if is_bottom(message):
        return NULL_BITS
    if isinstance(message, tuple):
        return HEADER_BITS + sum(
            encoded_message_bits(component, leaf_bits) for component in message
        )
    return leaf_bits(message)


def structural_key(message: Any) -> Any:
    """A hashable cache key capturing a message's *typed* structure.

    Equal keys imply equal typed structure, so a sizer may memoize on
    them.  The key must discriminate leaf types because measurement
    does: ``True == 1`` yet a bool is charged as a value while a small
    int may be charged as an index.  Raises ``TypeError`` for
    unhashable leaves (callers then skip the cache).

    An interned array returns its ``key_token`` in O(1): the store
    already discriminates leaf types, so canonical-node *identity* is
    typed structure.  (A plain tuple and its interned twin get
    different keys — both correct, one cold cache entry.)
    """
    if isinstance(message, InternedArray):
        return message.key_token
    if isinstance(message, tuple):
        return tuple(structural_key(component) for component in message)
    hash(message)  # unhashable -> TypeError, caller falls back
    return (type(message), message)


class MessageSizer:
    """Per-protocol message measurement policy.

    A protocol constructs one of these with its value-alphabet size and
    the system size ``n``; the runtime's metrics layer calls
    :meth:`measure` on every message a correct processor sends.

    Parameters
    ----------
    value_alphabet_size:
        ``|V|`` — the number of legal input values.
    n:
        Number of processors (sizes index leaves).

    Repeated measurements of structurally equal messages are served
    from a memo cache: protocols broadcast, so one round presents the
    same message up to ``n`` times, and block repetition re-presents it
    across rounds.  The cache key is :func:`structural_key`, which
    distinguishes leaf types, so a hit is always size-exact.
    """

    def __init__(self, value_alphabet_size: int, n: int):
        self.value_bits = bits_for_alphabet(value_alphabet_size)
        self.index_bits = bits_for_alphabet(n)
        self._n = n
        self._cache: Dict[Any, int] = {}

    def _leaf_bits(self, leaf: Any) -> int:
        # Index leaves are ints in 1..n; everything else is charged as
        # a value.  Booleans are values (True/False inputs), not ids.
        if (
            isinstance(leaf, int)
            and not isinstance(leaf, bool)
            and 1 <= leaf <= self._n
        ):
            return self.index_bits
        return self.value_bits

    def measure(self, message: Any) -> int:
        """Exact measured size of ``message`` in bits (memoized).

        Interned arrays are served from their store's flat size
        column (same policy: value/index split, bottoms free), so a
        new round's state — one new node over last round's children —
        costs one batched scan per sync instead of a full
        O(``n ** depth``) walk.
        """
        if isinstance(message, InternedArray):
            return _flat.tables_for(message.store).measured_bits(
                message,
                ("sizer", self.value_bits, self.index_bits, self._n),
                self._measure_leaf,
                HEADER_BITS,
            )
        try:
            key: Optional[Tuple[Any, ...]] = (structural_key(message),)
        except TypeError:
            key = None  # unhashable somewhere inside: measure directly
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        bits = encoded_message_bits(message, self._leaf_bits)
        if key is not None:
            self._cache[key] = bits
        return bits

    def _measure_leaf(self, leaf: Any) -> int:
        """One leaf's cost under :meth:`measure` (bottoms are free)."""
        if is_bottom(leaf):
            return NULL_BITS
        return self._leaf_bits(leaf)

    def measure_value_array(self, array: Any) -> int:
        """Size of an array charging every leaf as a value."""
        return encoded_array_bits(array, self.value_bits)

    def measure_index_array(self, array: Any) -> int:
        """Size of an array charging every leaf as an index."""
        return encoded_array_bits(array, self.index_bits)
