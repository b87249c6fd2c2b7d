"""Interactive consistency over full-information states.

Interactive consistency (Pease, Shostak, Lamport) asks the correct
processors to agree on an *n-vector*, one component per processor,
such that (a) all correct processors hold the same vector and (b) the
component for every correct processor ``q`` equals ``q``'s input.

It is the original formulation Byzantine agreement descends from, and
it falls straight out of this library's machinery: a ``t + 1``-round
full-information state contains one EIG tree per *source*, and
resolving each source's tree with the distinct-relay-chain rule yields
the vector.  Because it is just another decision function over
full-information states, it runs unchanged through the compact
protocol — a third application of the canonical form alongside
Byzantine agreement and approximate agreement.

Chain orientation matches :mod:`repro.fullinfo.decision`: array paths
are reverse chronological, so the chains of source ``q`` are the paths
*ending* in ``q``, rooted at the length-1 path ``(q,)``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from repro.arrays.value_array import array_depth, leaf_at
from repro.errors import ProtocolViolation
from repro.fullinfo.decision import resolve_chains
from repro.types import BOTTOM, ProcessId, Value


def interactive_consistency_decision(
    state: Any,
    n: int,
    t: int,
    default: Value,
    alphabet: Optional[Sequence[Value]] = None,
) -> Tuple[Value, ...]:
    """Resolve a depth-``t + 1`` state into the agreed n-vector.

    Component ``q`` is the resolution of source ``q``'s EIG tree —
    the distinct-label recursion of
    :func:`repro.fullinfo.decision.eig_byzantine_decision`, rooted at
    the path ``(q,)`` instead of the empty path.
    """
    depth = array_depth(state, n)
    if depth != t + 1:
        raise ProtocolViolation(
            f"interactive consistency needs a depth-{t + 1} state, got "
            f"depth {depth}"
        )
    return tuple(
        resolve_chains(
            lambda path: leaf_at(state, path), n, depth, default, alphabet,
            root=(source,),
        )
        for source in range(1, n + 1)
    )


def make_interactive_consistency_rule(
    t: int,
    default: Value,
    alphabet: Optional[Sequence[Value]] = None,
) -> Callable[[Any, int, ProcessId], Value]:
    """A ``DecisionRule`` deciding the full vector at round ``t + 1``.

    The decided "value" is the n-tuple itself; agreement then means
    all correct processors decide identical vectors.
    """

    def rule(state: Any, simulated_round: int, process_id: ProcessId) -> Value:
        if simulated_round < t + 1:
            return BOTTOM
        if not isinstance(state, tuple):
            return BOTTOM
        return interactive_consistency_decision(
            state, len(state), t, default=default, alphabet=alphabet
        )

    return rule
