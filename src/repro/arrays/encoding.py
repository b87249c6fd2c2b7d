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
from typing import Any, Callable, List

from repro.arrays import flat as _flat
from repro.arrays.store import InternedArray
from repro.arrays.value_array import fold_tree, is_index_scalar, when_interned
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


def _node_bits(child_bits: List[int]) -> int:
    """A tuple node: its framing header plus its children."""
    return HEADER_BITS + sum(child_bits)


def _policy_bits(
    message: Any, policy: Any, leaf_cost: Callable[[Any], int]
) -> int:
    """``message`` folded under one cost policy; an interned node reads
    that policy's flat size column instead of being opened."""

    def column_bits(node: InternedArray) -> int:
        return _flat.tables_for(node.store).measured_bits(
            node, policy, leaf_cost, HEADER_BITS
        )

    if isinstance(message, InternedArray):  # every correct sender's array
        return column_bits(message)
    return fold_tree(
        message, leaf_cost, _node_bits, closed=when_interned(column_bits)
    )


def encoded_array_bits(array: Any, leaf_bits: int) -> int:
    """Measured size of a nested-tuple array with uniform leaf cost.

    For an interned array with no :data:`~repro.types.BOTTOM` leaves
    the size is closed-form (every leaf costs ``leaf_bits``, every
    tuple node :data:`HEADER_BITS`), so measurement is O(1) instead of
    O(``n ** depth``) — bottoms cost 0 bits, so undefined interned
    arrays read the store's flat size column, and plain tuples are
    folded (:func:`~repro.arrays.value_array.fold_tree`).
    """
    if isinstance(array, InternedArray) and array.defined:
        return (
            array.leaf_count * leaf_bits
            + _interned_node_count(array) * HEADER_BITS
        )
    return _policy_bits(
        array, ("uniform", leaf_bits),
        lambda leaf: NULL_BITS if is_bottom(leaf) else leaf_bits,
    )


def encoded_message_bits(message: Any, leaf_bits: Callable[[Any], int]) -> int:
    """Measured size with a per-leaf cost function.

    ``leaf_bits`` receives each scalar leaf and returns its bit cost;
    use this when a message mixes value leaves and index leaves.
    """
    return fold_tree(
        message,
        lambda leaf: NULL_BITS if is_bottom(leaf) else leaf_bits(leaf),
        _node_bits,
    )


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

    Nothing is memoized here: a repeated message is the network's to
    recognise (one object a round, one ``key_token`` across rounds).
    """

    def __init__(self, value_alphabet_size: int, n: int):
        self.value_bits = bits_for_alphabet(value_alphabet_size)
        self.index_bits = bits_for_alphabet(n)
        self._n = n

    def measure(self, message: Any) -> int:
        """Exact measured size of ``message`` in bits.

        Interned arrays are served from their store's flat size
        column (same policy: value/index split, bottoms free), so a
        new round's state — one new node over last round's children —
        costs one batched scan per sync instead of a full
        O(``n ** depth``) walk.  Anything else — by now only a faulty
        sender's payload — is folded.
        """
        return _policy_bits(
            message,
            ("sizer", self.value_bits, self.index_bits, self._n),
            self._measure_leaf,
        )

    def _measure_leaf(self, leaf: Any) -> int:
        """One leaf's cost under :meth:`measure`."""
        if is_bottom(leaf):
            return NULL_BITS
        # Index leaves are ints in 1..n; everything else is charged as
        # a value.  Booleans are values (True/False inputs), not ids.
        if is_index_scalar(leaf, self._n):
            return self.index_bits
        return self.value_bits

    def measure_value_array(self, array: Any) -> int:
        """Size of an array charging every leaf as a value."""
        return encoded_array_bits(array, self.value_bits)

    def measure_index_array(self, array: Any) -> int:
        """Size of an array charging every leaf as an index."""
        return encoded_array_bits(array, self.index_bits)
