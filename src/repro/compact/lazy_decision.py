"""Polynomial-space decision evaluation on compressed states.

Resilience: ``n >= 3t + 1``, inherited from the compact protocol and
the EIG decision rule it evaluates.

The paper concedes a limitation: "A complete reconstruction of the
local state of processors in a full-information protocol requires
exponential space and time.  It is straightforward to devise an
efficient data representation that requires only a polynomial amount
of space; however, the question of how much time is required to reach
a decision remains open."

This module is that straightforward representation made concrete, plus
an observation that resolves the *time* question for the paper's own
corollary: the EIG Byzantine decision rule only ever reads leaves at
**distinct-label** relay chains — `n * (n-1) * ... * (n-t)` of them —
never the full `n^(t+1)` leaf set.  Reading one leaf of
``FULL_STATE = phi_b(CORE)`` does not require expanding anything: a
leaf address can be *pushed through the compression*, descending into
``CORE`` and, each time a scalar index `x` is met, continuing the
descent inside the agreed array ``OUT[b][x]`` at boundary ``b - 1``
(substitutivity makes this exact).  Each leaf read costs ``O(t + k)``
dictionary hops, so the whole decision runs in time polynomial in the
number of distinct chains — no exponential expansion ever happens.

:func:`full_state_leaf` is the lazy reader; :func:`lazy_eig_decision`
is the EIG rule running on top of it.  Tests assert equality with the
eager path (`tests/compact/test_lazy_decision.py`), and the ablation
benchmark measures the node-count gap.
"""

from __future__ import annotations

import functools
from typing import Any, Optional, Sequence, Tuple

from repro.arrays.value_array import is_index_scalar
from repro.compact.expansion import ExpansionState
from repro.compact.protocol import CompactProcess
from repro.errors import ProtocolViolation
from repro.fullinfo.decision import resolve_chains
from repro.types import BOTTOM, ProcessId, SystemConfig, Value, is_bottom

Path = Tuple[ProcessId, ...]


def full_state_leaf(
    expansion: ExpansionState,
    boundary: int,
    core: Any,
    path: Path,
    _counter: Optional[list] = None,
) -> Any:
    """The leaf of ``phi_boundary(core)`` at ``path``, computed lazily.

    Never materialises the expansion: descends ``core`` component by
    component, and whenever the descent reaches a scalar index it
    re-roots inside the corresponding OUT entry one boundary down.  A
    scalar *value* is only legal once the path is exhausted (values
    are the leaves of the fully simulated state).

    Returns :data:`BOTTOM` where the expansion is (currently)
    undefined.  ``_counter``, when given a one-element list, counts
    structure-node visits for the ablation benchmark.
    """
    node = core
    level = boundary
    remaining = tuple(path)
    while True:
        if _counter is not None:
            _counter[0] += 1
        if is_bottom(node):
            return BOTTOM
        if isinstance(node, tuple):
            if not remaining:
                raise ProtocolViolation(
                    f"path {path} too short: stopped at an array level"
                )
            head = remaining[0]
            if not 1 <= head <= len(node):
                raise ProtocolViolation(
                    f"path component {head} outside 1..{len(node)}"
                )
            node = node[head - 1]
            remaining = remaining[1:]
            continue
        # A scalar.  At boundary 1 it is a value (or junk): the path
        # must be exhausted.  At higher boundaries it is an index to
        # chase through the OUT table.
        if level == 1:
            if remaining:
                raise ProtocolViolation(
                    f"path {path} too long: hit a value with "
                    f"{len(remaining)} components left"
                )
            return expansion.expand_scalar(1, node)
        if not is_index_scalar(node, expansion.config.n):
            return BOTTOM
        node = expansion.binding((level, node))  # bottom: no OUT (yet)
        level -= 1


def lazy_eig_decision(
    expansion: ExpansionState,
    boundary: int,
    core: Any,
    n: int,
    t: int,
    default: Value,
    alphabet: Optional[Sequence[Value]] = None,
    _counter: Optional[list] = None,
) -> Value:
    """The EIG Byzantine decision rule over a *compressed* state.

    Semantics identical to
    :func:`repro.fullinfo.decision.eig_byzantine_decision` applied to
    ``phi_boundary(core)`` (which must represent a depth-``t + 1``
    simulated state), but leaves are fetched lazily with
    :func:`full_state_leaf`, so the exponential array never exists.
    """

    def leaf_of(path: Path) -> Any:
        leaf = full_state_leaf(expansion, boundary, core, path, _counter)
        return default if is_bottom(leaf) else leaf

    return resolve_chains(leaf_of, n, t + 1, default, alphabet)


class LazyCompactProcess(CompactProcess):
    """Protocol 3 whose decision rule reads the *compressed* state.

    Overrides the block driver's one decision step: the rule is handed
    ``(expansion, boundary, CORE)`` instead of ``FULL_STATE``, so
    ``full_state()`` is never called on the decision path and the
    exponential array never exists.
    """

    def _value_at(self, simulated: int) -> Value:
        return self._decision_rule(self.expansion, self.core_boundary, self.core)


def lazy_compact_ba_factory(
    value_alphabet: Sequence[Value],
    default: Value,
    k: int,
    overhead: int = 2,
):
    """Corollary 10's protocol with the polynomial-space decision path.

    A drop-in alternative to
    :func:`repro.compact.byzantine_agreement.compact_ba_factory` whose
    processes never materialise FULL_STATE.
    """

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> LazyCompactProcess:
        return LazyCompactProcess(
            process_id,
            config,
            input_value,
            k=k,
            value_alphabet=value_alphabet,
            # Called with (expansion, boundary, CORE): see _value_at.
            decision_rule=functools.partial(
                lazy_eig_decision,
                n=config.n,
                t=config.t,
                default=default,
                alphabet=value_alphabet,
            ),
            horizon=config.t + 1,
            overhead=overhead,
        )

    return factory
