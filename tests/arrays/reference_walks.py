"""Test-only oracle: the tree fold by plain recursion.

What :func:`repro.arrays.value_array.fold_tree` — and every walker and
sizer built on it — must equal on a payload small enough to recurse
into: the fold of the *tree* a nested container stands for, one visit
per occurrence, no memo.  Slow and obviously right; nothing under
``src/`` may import it.
"""

from repro.types import BOTTOM

ANY_CONTAINER = (tuple, frozenset, list, set, dict)


def fold(x, leaf, node, containers=tuple):
    if not isinstance(x, containers):
        return leaf(x)
    children = list(x) + (list(x.values()) if isinstance(x, dict) else [])
    return node([fold(child, leaf, node, containers) for child in children])


def leaves(x):
    return fold(x, lambda leaf: [leaf], lambda parts: sum(parts, []))


def unique(x):
    return tuple(dict.fromkeys((type(leaf), leaf) for leaf in leaves(x)))


def mapped(function, x):
    return fold(x, function, tuple)


def bits(x, leaf_bits, containers=tuple):
    """Two bits a node, ``leaf_bits(leaf)`` a leaf, bottoms free."""
    return fold(
        x,
        lambda leaf: 0 if leaf is BOTTOM else leaf_bits(leaf),
        lambda parts: 2 + sum(parts),
        containers,
    )


def nested_bits(width, levels, leaf_bits):
    """:func:`bits` of ``conftest.nested_tuple(width, levels)``, closed
    form — for the payloads no recursion reaches the bottom of."""
    nodes = sum(width ** level for level in range(levels))
    return 2 * nodes + width ** levels * leaf_bits
