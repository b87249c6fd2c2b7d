"""Partial functions and the extension relation (Section 5.1).

The paper's conventions, realised here:

* a partial function is *undefined* on some arguments — we model
  "undefined" with :data:`repro.types.BOTTOM`;
* any partial function applied to an undefined argument is undefined;
* any array any of whose elements is undefined is undefined;
* ``f`` *extends* ``g`` when for every ``x`` either ``f(x) = g(x)`` or
  ``g(x)`` is undefined;
* a function on arrays is *substitutive* when it distributes over the
  array structure: ``f((a_1, ..., a_n)) = (f(a_1), ..., f(a_n))``.

Expansion functions (:mod:`repro.compact.expansion`) are the main
clients: they are substitutive partial functions from index arrays to
value arrays, and Lemma 7 is a statement about the extension relation
between expansion functions held by different correct processors at
different rounds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.arrays.value_array import map_leaves
from repro.types import BOTTOM, is_bottom


class PartialFunction:
    """A scalar partial function with bottom-propagation built in.

    Wraps a plain callable that may return :data:`BOTTOM` for
    arguments outside its domain.  Calling the wrapper with
    :data:`BOTTOM` returns :data:`BOTTOM` without invoking the
    underlying callable, enforcing the paper's convention.
    """

    def __init__(
        self, function: Callable[[Any], Any], name: Optional[str] = None
    ):
        self._function = function
        self.name = name or getattr(function, "__name__", "partial")

    def __call__(self, argument: Any) -> Any:
        if is_bottom(argument):
            return BOTTOM
        return self._function(argument)

    def __repr__(self) -> str:
        return f"PartialFunction({self.name})"

    def defined_at(self, argument: Any) -> bool:
        """Whether this function is defined on ``argument``."""
        return not is_bottom(self(argument))


def identity() -> PartialFunction:
    """The identity function (total, hence trivially partial)."""
    return PartialFunction(lambda value: value, name="identity")


def table_function(
    table: Dict[Any, Any], name: Optional[str] = None
) -> PartialFunction:
    """A partial function defined by a lookup table.

    Arguments missing from the table map to :data:`BOTTOM`.  The table
    is copied, so later mutation of the caller's dict does not change
    the function — important because expansion functions must be
    snapshots of a processor's state at a specific round.
    """
    snapshot = dict(table)
    return PartialFunction(
        lambda value: snapshot.get(value, BOTTOM), name=name or "table"
    )


def compose(outer: Callable[[Any], Any], inner: Callable[[Any], Any],
            name: Optional[str] = None) -> PartialFunction:
    """Compose two partial functions; bottom propagates through both."""

    def composed(value: Any) -> Any:
        intermediate = inner(value)
        if is_bottom(intermediate):
            return BOTTOM
        return outer(intermediate)

    return PartialFunction(composed, name=name or "compose")


class _Undefined(Exception):
    """Abandons :func:`substitutive_apply` at the first undefined leaf."""


def substitutive_apply(scalar_function: Callable[[Any], Any], array: Any) -> Any:
    """Apply a scalar partial function substitutively to an array.

    Distributes over the nested-tuple structure
    (:func:`~repro.arrays.value_array.map_leaves`).  If the result of
    any leaf application is undefined then, per the paper's convention,
    the entire result is undefined (:data:`BOTTOM`), not an array with
    a bottom hole in it — and no later leaf is applied.
    """

    def apply(leaf: Any) -> Any:
        result = BOTTOM if is_bottom(leaf) else scalar_function(leaf)
        if is_bottom(result):
            raise _Undefined
        return result

    try:
        return map_leaves(apply, array)
    except _Undefined:
        return BOTTOM


def is_extension(
    candidate: Callable[[Any], Any],
    base: Callable[[Any], Any],
    domain: Iterable[Any],
) -> bool:
    """Check the extension relation on a finite ``domain``.

    ``candidate`` extends ``base`` when for every ``x`` in ``domain``
    either the two agree or ``base(x)`` is undefined.  Used by tests
    and the runtime invariant checker to validate Lemma 7.
    """
    for argument in domain:
        base_value = base(argument)
        if is_bottom(base_value):
            continue
        if candidate(argument) != base_value:
            return False
    return True
