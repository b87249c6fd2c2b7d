"""The simulation relation, executable (Sections 3.1 and 5.5).

Protocol ``P'`` simulates protocol ``P`` when there are simulation
functions ``f_p`` and a non-decreasing onto scaling function ``r``
such that every execution ``E' = (k, F, I, M')`` of ``P'`` has a
matching execution ``E = (r(k), F, I, M)`` of ``P`` with
``f_p(state(p, i, E')) = state(p, r(i), E)`` for every correct ``p``
and round ``i``.

Checking this involves an existential over ``E``.  For simulations
*of the full-information protocol* under faults (Theorem 9),
:func:`check_fullinfo_consistency` constructs ``E``: a family of
claimed full-information states is consistent with *some* execution
iff (a) every correct processor's round-``j`` state is an ``n``-vector
whose ``q``-th component, for correct ``q``, equals ``q``'s
round-``j-1`` state, (b) components for faulty ``q`` are well-shaped
depth-``j-1`` value arrays (any such array is a message a faulty
processor could legally send), and (c) round-0 states are the correct
processors' inputs.  The checker builds the witness ``E`` in the only
way possible and verifies it, making Theorem 9 a runtime-checkable
property.  (When ``E`` is known, as in a fault-free run, the direct
comparison is a test oracle: ``tests/core/reference_simulation.py``.)
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.arrays.value_array import array_depth, array_leaves
from repro.errors import ProtocolViolation, SimulationMismatch
from repro.types import ProcessId, Value


def check_fullinfo_consistency(
    full_states: Mapping[ProcessId, Sequence[Any]],
    correct_ids: Sequence[ProcessId],
    inputs: Mapping[ProcessId, Value],
    n: int,
    value_alphabet: Optional[Sequence[Value]] = None,
) -> None:
    """Verify claimed full-information states against *some* execution.

    ``full_states[p][j]`` is the claimed round-``j`` full-information
    state of correct processor ``p`` (index 0 holds the input).  The
    function raises :class:`SimulationMismatch` if no execution ``E``
    of the full-information protocol could produce these states, per
    the three conditions in the module docstring.
    """
    correct = sorted(correct_ids)
    alphabet = set(value_alphabet) if value_alphabet is not None else None

    for process_id in correct:
        states = full_states[process_id]
        if not states:
            raise SimulationMismatch(f"no states recorded for {process_id}")
        if states[0] != inputs[process_id]:
            raise SimulationMismatch(
                f"processor {process_id}: round-0 state {states[0]!r} is not "
                f"its input {inputs[process_id]!r}"
            )

    rounds = min(len(full_states[process_id]) - 1 for process_id in correct)
    for round_number in range(1, rounds + 1):
        for process_id in correct:
            state = full_states[process_id][round_number]
            if not isinstance(state, tuple) or len(state) != n:
                raise SimulationMismatch(
                    f"processor {process_id}, round {round_number}: state is "
                    f"not an n-vector"
                )
            for sender in range(1, n + 1):
                component = state[sender - 1]
                if sender in correct:
                    expected = full_states[sender][round_number - 1]
                    if component != expected:
                        raise SimulationMismatch(
                            f"processor {process_id}, round {round_number}: "
                            f"component for correct sender {sender} does not "
                            f"match the sender's round-{round_number - 1} state"
                        )
                else:
                    _check_legal_faulty_message(
                        component, round_number - 1, n, alphabet,
                        context=(
                            f"processor {process_id}, round {round_number}, "
                            f"faulty sender {sender}"
                        ),
                    )


def _check_legal_faulty_message(
    component: Any,
    expected_depth: int,
    n: int,
    alphabet: Optional[set],
    context: str,
) -> None:
    """A faulty sender's component must be a legal round message.

    In the full-information protocol a legal round-``j+1`` message is
    any depth-``j`` value array; anything else could not appear in a
    correct processor's state, so its presence falsifies the claimed
    simulation.
    """
    try:
        depth = array_depth(component, n)
    except ProtocolViolation as error:
        raise SimulationMismatch(f"{context}: malformed array ({error})")
    if depth != expected_depth:
        raise SimulationMismatch(
            f"{context}: depth {depth}, expected {expected_depth}"
        )
    if alphabet is not None:
        for leaf in array_leaves(component):
            if leaf not in alphabet:
                raise SimulationMismatch(
                    f"{context}: leaf {leaf!r} outside the value alphabet"
                )
