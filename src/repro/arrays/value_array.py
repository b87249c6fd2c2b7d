"""i-dimensional arrays as nested tuples (Section 5.1).

An array of dimension 0 is a scalar (any non-tuple value); an array of
dimension ``i > 0`` is a tuple of exactly ``n`` arrays of dimension
``i - 1``.  Scalars are required to be non-tuples so that the depth of
an array is determined by its structure alone.

Paths
-----
A *path* into a depth-``d`` array is a tuple of up to ``d`` processor
ids (1-based, matching the paper).  The empty path addresses the array
itself; path ``(q,)`` addresses the ``q``-th component, and so on.
Paths double as the node labels of the exponential-information-
gathering (EIG) tree that :mod:`repro.fullinfo.decision` resolves.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.arrays.store import MAX_DEPTH, InternedArray
from repro.errors import ProtocolViolation

Path = Tuple[int, ...]

# Fast-path note: an InternedArray whose top level has length ``n``
# was, by the store invariant (every level of a store-``n`` node has
# length exactly ``n``), shape-validated at intern time for this very
# ``n`` — so shape walks collapse to O(1) metadata reads.  All fast
# paths below are exact: they return precisely what the plain
# walk would.


def fold_tree(
    root: Any,
    leaf: Callable[[Any], Any],
    combine: Callable[[List[Any]], Any],
    containers: Any = tuple,
    closed: Optional[Callable[[Any], Any]] = None,
) -> Any:
    """Post-order fold of a nested container: the one plain-tuple walk.

    ``leaf(x)`` answers for anything that is not one of ``containers``,
    ``combine(answers)`` for a container from its children's answers in
    order (a dict's: keys, then values); ``closed(container)`` may
    answer for one without opening it, or return ``None`` to open it.
    A container is asked about just before it is opened and combined
    just after its last child, so those two calls nest like brackets.

    Anything may arrive here from a Byzantine sender, so the walk keeps
    its own stack — nesting thousands deep is just a long message — and
    folds each distinct container *object* once per call, reusing its
    answer wherever it recurs: a payload sharing one child at every
    level (``x = (x, x)`` sixty times over) costs sixty combines, not
    ``2 ** 60``, and the answer is still the fold of the tree it stands
    for.  A container met again on its own path (a list holding itself)
    is handed to ``leaf`` there.
    """
    if not isinstance(root, containers):
        return leaf(root)
    folded: Dict[int, Any] = {}  # id of a folded container -> its answer
    on_path: Set[int] = set()
    # (id of a container, its children still to visit, their answers)
    frames: List[Tuple[int, Iterator[Any], List[Any]]] = [(0, iter((root,)), [])]
    while True:
        ident, children, answers = frames[-1]
        for item in children:
            if not isinstance(item, containers) or id(item) in on_path:
                answers.append(leaf(item))
            elif id(item) in folded:
                answers.append(folded[id(item)])
            else:
                known = closed(item) if closed is not None else None
                if known is None:
                    on_path.add(id(item))
                    values = item.values() if isinstance(item, dict) else ()
                    frames.append((id(item), itertools.chain(item, values), []))
                    break
                answers.append(known)
        else:
            frames.pop()
            if not frames:
                return answers[0]
            on_path.discard(ident)
            folded[ident] = combine(answers)
            frames[-1][2].append(folded[ident])


def when_interned(answer: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """A ``closed`` for :func:`fold_tree`: an interned node answers from
    its metadata, anything else is opened."""
    return lambda node: answer(node) if isinstance(node, InternedArray) else None


def array_depth(array: Any, n: int) -> int:
    """Return the dimension of ``array``, validating uniform shape.

    Raises
    ------
    ProtocolViolation
        If the array is ragged, has a level whose length is not ``n``,
        mixes scalars and sub-arrays at one level, or nests plain
        tuples more than :data:`~repro.arrays.store.MAX_DEPTH` deep.
        Messages arriving off the network are validated with this
        before use, so a faulty sender cannot crash a correct
        processor.
    """
    return _depth_within(array, n, MAX_DEPTH, {})


def _depth_within(
    array: Any, n: int, budget: int, seen: Dict[int, int]
) -> int:
    """:func:`array_depth`, opening at most ``budget`` plain levels.

    The bound is what keeps a hostile payload nested thousands deep a
    :class:`ProtocolViolation` instead of a ``RecursionError``; an
    interned node answers from its metadata and opens none.  ``seen``
    maps the ``id`` of each plain tuple already measured in this call
    to its depth (the caller's root keeps them alive), so a payload
    sharing one child object at every level costs the objects its
    sender built, not the ``n ** depth`` tree they stand for.
    """
    if not isinstance(array, tuple):
        return 0
    if type(array) is InternedArray and len(array) == n:
        return array.depth
    if len(array) != n:
        raise ProtocolViolation(
            f"array level has length {len(array)}, expected n={n}"
        )
    if budget <= 0:
        raise ProtocolViolation("array is nested deeper than allowed")
    budget -= 1
    depths: Set[int] = set()
    for component in array:
        if not isinstance(component, tuple):
            depths.add(0)  # most components are leaves: no call
            continue
        depth = seen.get(id(component))
        if depth is None:
            depth = _depth_within(component, n, budget, seen)
            seen[id(component)] = depth
        depths.add(depth)
    if len(depths) != 1:
        raise ProtocolViolation(f"ragged array: component depths {depths}")
    return 1 + depths.pop()


def validate_array(
    array: Any,
    n: int,
    depth: Optional[int] = None,
    leaf_ok: Optional[Callable[[Any], bool]] = None,
) -> bool:
    """Check shape (and optionally depth and leaf membership).

    Returns ``True`` when the array is well-formed; ``False`` otherwise
    (never raises, unlike :func:`array_depth`).  This is the defensive
    entry point for anything received from a possibly faulty sender,
    so the shape walk opens no more plain-tuple levels than ``depth``
    (:data:`~repro.arrays.store.MAX_DEPTH` when none is given): a
    payload nested deeper is ``False`` without being walked to the
    bottom.

    An interned array answers the shape walk from its metadata, and
    the leaf predicate runs once per occurrence in each *distinct*
    sub-array object (:func:`fold_tree`) — same verdict, since a
    predicate's answer depends only on the leaf itself.
    """
    try:
        actual = _depth_within(
            array, n, MAX_DEPTH if depth is None else min(depth, MAX_DEPTH), {}
        )
    except ProtocolViolation:
        return False
    if depth is not None and actual != depth:
        return False
    return leaf_ok is None or bool(fold_tree(array, leaf_ok, all))


def array_leaves(array: Any) -> Iterator[Any]:
    """Yield the scalar leaves of ``array`` in left-to-right order:
    one per occurrence, so any depth is fine but sharing buys nothing."""
    stack = [iter((array,))]
    while stack:
        for item in stack[-1]:
            if isinstance(item, tuple):
                stack.append(iter(item))
                break
            yield item
        else:
            stack.pop()


def count_leaves(array: Any) -> int:
    """Number of scalar leaves (``n ** depth`` for a well-shaped array)."""
    return fold_tree(
        array, lambda leaf: 1, sum,
        closed=when_interned(lambda node: node.leaf_count),
    )


def unique_leaves(array: Any) -> Tuple[Tuple[type, Any], ...]:
    """The distinct typed leaves of ``array`` in first-occurrence order.

    ``(type(leaf), leaf)`` pairs, deduplicated by typed equality —
    ``True`` and ``1`` stay distinct even though they compare equal.
    O(1) for interned arrays; one fold otherwise (a subtree met twice
    has nothing new the second time).  Raises ``TypeError`` when a leaf
    is unhashable.
    """
    if isinstance(array, InternedArray):
        return array.leaves_unique
    seen: Dict[Tuple[type, Any], None] = {}

    def see_interned(node: InternedArray) -> bool:
        seen.update(dict.fromkeys(node.leaves_unique))
        return True

    fold_tree(
        array, lambda leaf: seen.setdefault((leaf.__class__, leaf)),
        lambda _: None, closed=when_interned(see_interned),
    )
    return tuple(seen)


def leaf_at(array: Any, path: Path) -> Any:
    """Return the sub-array addressed by ``path`` (1-based components)."""
    node = array
    for process_id in path:
        if not isinstance(node, tuple):
            raise ProtocolViolation(
                f"path {path} descends below the leaves of the array"
            )
        if not 1 <= process_id <= len(node):
            raise ProtocolViolation(
                f"path component {process_id} outside 1..{len(node)}"
            )
        node = node[process_id - 1]
    return node


def is_index_scalar(value: Any, n: int) -> bool:
    """Whether ``value`` is a processor id usable in an index array."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= n
