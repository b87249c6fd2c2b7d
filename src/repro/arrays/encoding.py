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
from typing import Any, Callable, List, Optional

from repro.arrays.store import InternedArray
from repro.arrays.value_array import fold_tree, is_index_scalar
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


def _node_bits(child_bits: List[int]) -> int:
    """A tuple node: its framing header plus its children."""
    return HEADER_BITS + sum(child_bits)


def _policy_bits(
    message: Any, policy: Any, leaf_cost: Callable[[Any], int]
) -> int:
    """``message`` folded under one cost policy: :data:`HEADER_BITS`
    per tuple level plus ``leaf_cost(leaf)`` per leaf occurrence.

    ``policy`` names the costs (same key, same ``leaf_cost``).  An
    interned node is sized once per store and policy, from its
    children's sizes, and remembered in :attr:`ArrayStore.sizes`; met
    again — as the message or anywhere inside a plain tuple wrapping it
    — it is one lookup and is not opened.
    """
    # fold_tree asks ``closed`` about a tuple just before opening it
    # and combines its children just after the last one, so the two
    # calls nest like brackets: the tuple being combined is the one
    # most recently opened and not yet closed.
    opened: List[Any] = []

    def known_bits(node: Any) -> Optional[int]:
        if type(node) is InternedArray:
            known = node.store.sizes.get((policy, node.key_token))
            if known is not None:
                return known
        opened.append(node)
        return None

    def node_bits(child_bits: List[int]) -> int:
        node = opened.pop()
        bits = _node_bits(child_bits)
        if type(node) is InternedArray:
            node.store.sizes[(policy, node.key_token)] = bits
        return bits

    return fold_tree(message, leaf_cost, node_bits, closed=known_bits)


def encoded_array_bits(array: Any, leaf_bits: int) -> int:
    """Measured size of a nested-tuple array with uniform leaf cost.

    Every leaf costs ``leaf_bits`` and every tuple node
    :data:`HEADER_BITS`, except that bottoms cost 0 bits.
    """
    return _policy_bits(
        array, ("uniform", leaf_bits),
        lambda leaf: NULL_BITS if is_bottom(leaf) else leaf_bits,
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

    Sizes of interned nodes are memoized in their store's
    :attr:`~repro.arrays.store.ArrayStore.sizes`, keyed by this
    sizer's policy; a repeated plain message is the network's to
    recognise (one object a round).
    """

    def __init__(self, value_alphabet_size: int, n: int):
        self.value_bits = bits_for_alphabet(value_alphabet_size)
        self.index_bits = bits_for_alphabet(n)
        self._n = n
        self._policy = ("sizer", self.value_bits, self.index_bits, n)

    def measure(self, message: Any) -> int:
        """Exact measured size of ``message`` in bits.

        An interned array is sized once per store (same policy:
        value/index split, bottoms free), so a new round's state —
        one new node over last round's children — costs ``n`` lookups
        instead of a full O(``n ** depth``) walk, and a node already
        sized costs one.  Anything else — by now only a faulty
        sender's payload — is folded.
        """
        if type(message) is InternedArray:
            known = message.store.sizes.get((self._policy, message.key_token))
            if known is not None:
                return known
        return _policy_bits(message, self._policy, self._measure_leaf)

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
