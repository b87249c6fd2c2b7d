"""A plain-tuple model of the EIG decision's dominant-child walk.

Written from the rule, not from ``repro.fullinfo.decision``: a
depth-``h`` node one of whose children fills ``a`` slots with
``2a > n + h - 1`` resolves as that child does one level down, and the
walk runs only when no two value-equal votes can be told apart.  Tests
use it to predict which route an interned state's memo miss takes.
"""

import math

from repro.fullinfo.decision import _REFERENCE_MAX_CHAINS

#: Classes whose equal values are indistinguishable.
EXACT = (bool, int, str, bytes, type(None))


def typed_shape(value):
    """``value``'s typed structure: the store's identity for a node."""
    if isinstance(value, tuple):
        return tuple(typed_shape(component) for component in value)
    return (type(value), value)


def leaves(value):
    if isinstance(value, tuple):
        for component in value:
            yield from leaves(component)
    else:
        yield value


def walk_allowed(state, default, alphabet):
    """The typed guard: every vote (normalised leaf or ``default``) is
    of a class whose equal values print alike, no float zero among
    them, and no two value-equal votes of different classes."""
    distinct = {(type(default), repr(default)): default}
    for leaf in leaves(state):
        vote = leaf if alphabet is None or leaf in alphabet else default
        distinct.setdefault((type(vote), repr(vote)), vote)
    votes = list(distinct.values())
    for vote in votes:
        if type(vote) is float:
            if vote == 0.0:
                return False
        elif type(vote) not in EXACT and type(vote).__eq__ is not object.__eq__:
            return False
    return all(
        type(first) is type(second)
        for first in votes for second in votes if first == second
    )


def walk_stop(state, n, depth, default, alphabet):
    """The depth of the node the walk hands to a sweep: ``depth`` when
    it does not start, 0 when a leaf settles the state."""
    if not walk_allowed(state, default, alphabet):
        return depth
    node, height = state, depth
    while height > 0:
        shapes = [typed_shape(component) for component in node]
        best = max(shapes, key=shapes.count)
        if 2 * shapes.count(best) <= n + height - 1:
            return height
        node, height = node[shapes.index(best)], height - 1
    return 0


def expected_routes(state, n, depth, default, alphabet):
    """``(descent, flat + fallback)`` for one memo miss on ``state``."""
    stop = walk_stop(state, n, depth, default, alphabet)
    if stop == 0:
        return (1, 0)
    return (0, int(math.perm(n, stop) > _REFERENCE_MAX_CHAINS))
