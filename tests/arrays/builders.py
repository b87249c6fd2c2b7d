"""Test-only array builders over plain nested tuples.

Tests build states and edit them with these; nothing under ``src/``
needs them, because a protocol only ever receives arrays and walks
them through :mod:`repro.arrays.value_array`.
"""

from typing import Any, Callable, Iterator

from repro.arrays.value_array import Path, fold_tree
from repro.errors import ProtocolViolation


def uniform_array(scalar: Any, depth: int, n: int) -> Any:
    """The depth-``depth`` array all of whose leaves are ``scalar``."""
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    result: Any = scalar
    for _ in range(depth):
        result = tuple(result for _ in range(n))
    return result


def map_leaves(function: Callable[[Any], Any], array: Any) -> Any:
    """``array`` with ``function`` applied to every leaf, shape kept:
    the substitutive apply of Section 5.1,
    ``f((a_1, ..., a_n)) = (f(a_1), ..., f(a_n))``."""
    return fold_tree(array, function, tuple)


def replace_at(array: Any, path: Path, value: Any) -> Any:
    """A copy of ``array`` with the sub-array at ``path`` replaced."""
    if not path:
        return value
    if not isinstance(array, tuple):
        raise ProtocolViolation(
            f"path {path} descends below the leaves of the array"
        )
    head = path[0]
    if not 1 <= head <= len(array):
        raise ProtocolViolation(
            f"path component {head} outside 1..{len(array)}"
        )
    return tuple(
        replace_at(component, path[1:], value) if index == head - 1 else component
        for index, component in enumerate(array)
    )


def iter_paths(n: int, depth: int) -> Iterator[Path]:
    """Every leaf path of a depth-``depth`` array over ``n`` ids, in
    leaf order (``n ** depth`` of them)."""
    if depth == 0:
        yield ()
        return
    for prefix in iter_paths(n, depth - 1):
        for process_id in range(1, n + 1):
            yield prefix + (process_id,)
