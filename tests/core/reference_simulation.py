"""Test-only reference side of a simulation check (Sections 3.1, 5.5).

Protocol ``P'`` simulates protocol ``P`` when there are simulation
functions ``f_p`` and a non-decreasing onto scaling function ``r``
such that every execution ``E' = (k, F, I, M')`` of ``P'`` has a
matching execution ``E = (r(k), F, I, M)`` of ``P`` with
``f_p(state(p, i, E')) = state(p, r(i), E)`` for every correct ``p``
and round ``i``.

When ``E`` is known — a fault-free run, where it is unique given the
inputs — the relation is checked directly: :func:`run_automaton_locally`
computes ``E`` without the network and :func:`check_simulation`
compares ``f_p(state')`` against it.  Under faults ``E`` must be
constructed; that checker,
:func:`repro.core.simulation.check_fullinfo_consistency`, stays in
``src/`` because the fuzz oracles call it.  Nothing under ``src/`` may
import this module.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.core.automaton import AutomatonProtocol
from repro.errors import SimulationMismatch
from repro.runtime.engine import ExecutionResult
from repro.runtime.message import Envelope
from repro.types import BOTTOM, ProcessId, Value


@dataclasses.dataclass(frozen=True)
class ExecutionRecord:
    """The paper's execution ``(k, F, I, M)`` with its answers ``ans(E)``."""

    rounds: int
    faulty: FrozenSet[ProcessId]
    inputs: Tuple[Value, ...]
    faulty_messages: Tuple[Envelope, ...]
    answers: Tuple[Value, ...]

    @classmethod
    def from_result(cls, result: ExecutionResult) -> "ExecutionRecord":
        """Project a runtime result onto the formal 4-tuple.

        ``M`` is populated only when the run recorded a trace.
        """
        faulty_messages: List[Envelope] = []
        if result.trace is not None:
            faulty_messages = [
                envelope
                for envelope in result.trace.envelopes
                if envelope.sender in result.faulty_ids
            ]
        return cls(
            rounds=result.rounds,
            faulty=frozenset(result.faulty_ids),
            inputs=tuple(
                result.inputs[process_id]
                for process_id in result.config.process_ids
            ),
            faulty_messages=tuple(faulty_messages),
            answers=result.answer_vector(),
        )

    def is_deciding(self) -> bool:
        """All correct processors decided (their answer is not BOTTOM)."""
        return all(
            answer is not BOTTOM
            for answer in self.correct_answers().values()
        )

    def correct_answers(self) -> Dict[ProcessId, Value]:
        """Decision per correct processor."""
        return {
            process_id: self.answers[process_id - 1]
            for process_id in range(1, len(self.answers) + 1)
            if process_id not in self.faulty
        }


def run_automaton_locally(
    protocol: AutomatonProtocol,
    inputs: Dict[ProcessId, Value],
    rounds: int,
) -> Dict[ProcessId, List[Any]]:
    """Fault-free reference execution without the network.

    ``states[p][i]`` is ``p``'s round-``i`` state; index 0 is the
    initial state.
    """
    config = protocol.config
    states: Dict[ProcessId, List[Any]] = {
        process_id: [protocol.initial_state(process_id, inputs[process_id])]
        for process_id in config.process_ids
    }
    for _ in range(1, rounds + 1):
        messages_to: Dict[ProcessId, List[Any]] = {
            receiver: [] for receiver in config.process_ids
        }
        for sender in config.process_ids:
            for receiver in config.process_ids:
                messages_to[receiver].append(
                    protocol.message(sender, receiver, states[sender][-1])
                )
        for receiver in config.process_ids:
            states[receiver].append(
                protocol.transition(receiver, tuple(messages_to[receiver]))
            )
    return states


@dataclasses.dataclass
class SimulationWitness:
    """The data of a simulation claim: ``f_p`` per processor and ``r``."""

    simulation_functions: Mapping[ProcessId, Callable[[Any], Any]]
    scaling: Callable[[int], int]

    def map_state(self, process_id: ProcessId, state: Any) -> Any:
        return self.simulation_functions[process_id](state)


def check_simulation(
    witness: SimulationWitness,
    primed_states: Mapping[ProcessId, Sequence[Any]],
    reference_states: Mapping[ProcessId, Sequence[Any]],
    correct_ids: Sequence[ProcessId],
    rounds: int,
) -> None:
    """Verify ``f_p(state(p, i, E')) = state(p, r(i), E)`` directly.

    Raises :class:`SimulationMismatch` on the first violated equality.
    """
    for process_id in correct_ids:
        for round_number in range(1, rounds + 1):
            mapped = witness.map_state(
                process_id, primed_states[process_id][round_number]
            )
            target_round = witness.scaling(round_number)
            expected = reference_states[process_id][target_round]
            if mapped != expected:
                raise SimulationMismatch(
                    f"processor {process_id}, round {round_number}: "
                    f"f_p(state') != state at scaled round {target_round}"
                )


def states_by_round(
    snapshots: Mapping[int, Mapping[ProcessId, Any]],
    key: str,
) -> Dict[ProcessId, List[Any]]:
    """Pivot trace snapshots into per-processor state sequences.

    ``result[p][r] = snapshots[r][p][key]``, with round 0 left to the
    caller (traces start at round 1).
    """
    result: Dict[ProcessId, List[Any]] = {}
    for round_number in sorted(snapshots):
        for process_id, snapshot in snapshots[round_number].items():
            result.setdefault(process_id, [None]).append(snapshot[key])
    return result
