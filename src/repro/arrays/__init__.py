"""Nested arrays (Section 5.1 of the paper).

The compact full-information protocol manipulates *i-dimensional
arrays*: a 0-dimensional array of a set ``S`` is any element of ``S``;
an i-dimensional array is an ``n``-vector of (i-1)-dimensional arrays.
Two array families matter:

* **value arrays** — arrays over the input set ``V``; the states and
  messages of the full-information protocol,
* **index arrays** — arrays over processor ids ``{1..n}``; the
  compressed states (``CORE``) of the compact protocol in blocks
  after the first.

Arrays are represented as plain nested tuples so that they are
hashable (avalanche agreement tallies votes over them), cheaply
comparable, and directly printable.  The paper's "undefined" element
is :data:`repro.types.BOTTOM`; by the paper's convention an array is
undefined whenever any element of it is undefined, and a partial
function applied to an undefined argument is undefined.

Because the protocols broadcast, these trees are overwhelmingly
*shared* substructure; :mod:`repro.arrays.store` hash-conses them into
canonical :class:`~repro.arrays.store.InternedArray` nodes (still
tuples, so nothing above notices) with precomputed shape metadata, and
every walk in this package takes an O(unique nodes) — usually O(1) —
fast path over them.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "store": (
        "ArrayStore",
        "InternedArray",
        "clear_shared_stores",
        "release_shared_stores",
        "shared_store",
    ),
    "value_array": (
        "array_depth",
        "array_leaves",
        "count_leaves",
        "is_index_scalar",
        "leaf_at",
        "unique_leaves",
        "validate_array",
    ),
    "encoding": (
        "MessageSizer",
        "bits_for_alphabet",
        "encoded_array_bits",
    ),
})
