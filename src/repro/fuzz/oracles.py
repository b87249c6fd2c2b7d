"""Execution oracles: the paper's guarantees as violation detectors.

Every oracle takes one finished execution and returns a list of
human-readable violation strings (empty = the execution is fine),
mirroring the style of :mod:`repro.avalanche.conditions`.  Oracles
never raise on a judged failure — a raised exception means the oracle
itself could not run, which campaigns surface separately from
protocol violations.

Oracles run where the execution ran, on the live
:class:`~repro.runtime.engine.ExecutionResult` — in-process or in a
pool worker — before the result is stripped for transport.  So an
oracle may read process state as well as decisions, inputs and the
fault set: ``fullinfo-consistency`` checks Theorem 9 on the
full-information states themselves, on every case it is listed for.

The cross-protocol **differential oracle** is separate
(:func:`differential_mismatches`): it compares the runs of one
scenario across a differential group.  Its claims are deliberately
the *sound* subset of "compact-BA and EIG co-decide":

* with **no faulty processors**, the compact protocol's simulation is
  exact (Theorem 9 with ``F`` empty leaves the adversary no moves),
  so the two runs must decide identically, processor by processor;
* with **unanimous correct inputs**, validity pins both protocols to
  that value, so they must co-decide it even under faults.

Under faults *with mixed inputs*, equality is not a theorem: the
adversary adapts to each protocol's traffic, so the two executions
see genuinely different attacks and may legitimately settle on
different (individually correct) values — asserting equality there
would make the fuzzer cry wolf.  docs/fuzzing.md walks through this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Tuple

from repro.core.predicates import agreement_predicate, validity_predicate
from repro.runtime.engine import ExecutionResult
from repro.types import BOTTOM, Value, is_bottom

if TYPE_CHECKING:
    from repro.fuzz.protocols import ProtocolSpec

#: An oracle judges one execution: violations, empty when clean.
Oracle = Callable[[ExecutionResult], List[str]]

_agreement = agreement_predicate()
_validity = validity_predicate()


def _inputs_tuple(result: ExecutionResult) -> Tuple[Value, ...]:
    return tuple(
        result.inputs.get(process_id, BOTTOM)
        for process_id in result.config.process_ids
    )


def check_decided(result: ExecutionResult) -> List[str]:
    """Termination: every correct processor reached a decision."""
    return [
        f"correct processor {process_id} never decided "
        f"(ran {result.rounds} rounds)"
        for process_id in result.correct_ids
        if is_bottom(result.decisions.get(process_id, BOTTOM))
    ]


def check_agreement(result: ExecutionResult) -> List[str]:
    """No two correct processors decided different values."""
    if _agreement(
        result.answer_vector(), frozenset(result.faulty_ids),
        _inputs_tuple(result),
    ):
        return []
    decided = {
        process_id: result.decisions.get(process_id, BOTTOM)
        for process_id in result.correct_ids
    }
    return [f"agreement violated: correct decisions {decided!r}"]


def check_validity(result: ExecutionResult) -> List[str]:
    """A unanimous correct input must be the decided value."""
    if _validity(
        result.answer_vector(), frozenset(result.faulty_ids),
        _inputs_tuple(result),
    ):
        return []
    return [
        "validity violated: unanimous correct input was not decided "
        f"(inputs {result.inputs!r}, decisions {result.decisions!r})"
    ]


def check_avalanche(result: ExecutionResult) -> List[str]:
    """Protocol 2's three conditions, verbatim from the checkers."""
    from repro.avalanche.conditions import (
        check_avalanche_condition,
        check_consensus_condition,
        check_plausibility_condition,
    )

    correct = result.correct_ids
    violations = list(check_avalanche_condition(
        result.decisions, result.decision_rounds, correct, result.rounds
    ))
    violations.extend(check_consensus_condition(
        result.decisions, result.decision_rounds, result.inputs, correct,
        result.rounds,
    ))
    violations.extend(check_plausibility_condition(
        result.decisions, result.inputs, correct
    ))
    return violations


def check_crusader(result: ExecutionResult) -> List[str]:
    """Crusader agreement: one common value, or SENDER_FAULTY; a
    correct source's value is mandatory for everyone."""
    from repro.agreement.crusader import SENDER_FAULTY

    source = result.config.n  # the registry's convention
    violations: List[str] = []
    values = sorted(
        {
            result.decisions.get(process_id, BOTTOM)
            for process_id in result.correct_ids
        } - {SENDER_FAULTY, BOTTOM},
        key=repr,
    )
    if len(values) > 1:
        violations.append(
            f"crusader agreement violated: distinct values decided {values!r}"
        )
    if source not in result.faulty_ids:
        required = result.inputs[source]
        for process_id in result.correct_ids:
            decision = result.decisions.get(process_id, BOTTOM)
            if decision != required:
                violations.append(
                    f"correct source sent {required!r} but processor "
                    f"{process_id} decided {decision!r}"
                )
    return violations


def check_weak_validity(result: ExecutionResult) -> List[str]:
    """Lamport's weakened validity: binding only in fault-free
    executions with unanimous inputs."""
    if result.faulty_ids:
        return []
    inputs = {result.inputs[process_id] for process_id in result.correct_ids}
    if len(inputs) != 1:
        return []
    (required,) = inputs
    return [
        f"weak validity violated: fault-free unanimous input {required!r} "
        f"but processor {process_id} decided "
        f"{result.decisions.get(process_id, BOTTOM)!r}"
        for process_id in result.correct_ids
        if result.decisions.get(process_id, BOTTOM) != required
    ]


def check_firing_squad(result: ExecutionResult) -> List[str]:
    """Simultaneity, safety and liveness of the firing squad."""
    from repro.agreement.firing_squad import fire_deadline

    violations: List[str] = []
    fired = {
        process_id: result.decision_rounds.get(process_id)
        for process_id in result.correct_ids
        if not is_bottom(result.decisions.get(process_id, BOTTOM))
    }
    go_rounds = [
        result.inputs[process_id]
        for process_id in result.correct_ids
    ]
    if len(set(fired.values())) > 1:
        violations.append(
            f"simultaneity violated: correct fire rounds {fired!r}"
        )
    if all(is_bottom(go) for go in go_rounds) and fired:
        violations.append(
            f"safety violated: no correct GO stimulus but {sorted(fired)} fired"
        )
    if not any(is_bottom(go) for go in go_rounds) and go_rounds:
        deadline = fire_deadline(max(go_rounds), result.config.t)
        if result.rounds >= deadline:
            for process_id in result.correct_ids:
                round_fired = fired.get(process_id)
                if round_fired is None:
                    violations.append(
                        f"liveness violated: all correct GOs in by round "
                        f"{max(go_rounds)} but processor {process_id} never "
                        f"fired within {result.rounds} rounds"
                    )
                elif round_fired > deadline:
                    violations.append(
                        f"liveness violated: processor {process_id} fired in "
                        f"round {round_fired} > deadline {deadline}"
                    )
    return violations


def check_fullinfo_consistency_oracle(result: ExecutionResult) -> List[str]:
    """Theorem 9 applied to a live full-information run.

    The whole state family is recovered from each processor's *final*
    state by self-component unfolding: processor ``p``'s round-``j``
    state carries its own round-``j-1`` state in component ``p`` (it
    receives its own broadcast), so ``states[j-1] = states[j][p-1]``
    down to the round-0 input.  The recovered family is then checked
    against :func:`repro.core.simulation.check_fullinfo_consistency`
    exactly as an offline verifier would check a claimed execution.
    """
    from repro.core.simulation import SimulationMismatch, check_fullinfo_consistency

    full_states: Dict[int, List] = {}
    for process_id in result.correct_ids:
        state = result.processes[process_id].state
        states: List = [None] * (result.rounds + 1)
        for round_number in range(result.rounds, 0, -1):
            states[round_number] = state
            state = state[process_id - 1]
        states[0] = state
        full_states[process_id] = states
    try:
        check_fullinfo_consistency(
            full_states,
            result.correct_ids,
            result.inputs,
            result.config.n,
            value_alphabet=(0, 1),
        )
    except SimulationMismatch as mismatch:
        return [f"fullinfo consistency violated: {mismatch}"]
    return []


def check_budget(spec: ProtocolSpec, result: ExecutionResult) -> List[str]:
    """The spec's declared costs, held to the execution.

    Every metered round ``r`` stays within ``spec.message_bits(config,
    r)`` bits per message (the meter keeps per-round totals, so this is
    the round's average over its messages), and, when the spec
    declares a round bound (``spec.rounds`` is not ``None``), every
    correct processor decided by round ``spec.rounds(config)``.  Not
    a named oracle: the campaign judges every spec by it.
    """
    config = result.config
    violations: List[str] = []
    for round_number, bits in result.metrics.bits_by_round():
        messages = result.metrics.round_usage(round_number).messages
        budget = spec.message_bits(config, round_number)
        if bits > messages * budget:
            violations.append(
                f"round {round_number}: {bits} bits in {messages} messages "
                f"exceeds the budget of {budget} bits a message"
            )
    if spec.rounds is not None:
        bound = spec.rounds(config)
        late = {
            process_id: result.decision_rounds[process_id]
            for process_id in result.correct_ids
            if (result.decision_rounds.get(process_id) or 0) > bound
        }
        if late:
            violations.append(
                f"decided after the declared bound of {bound} rounds: {late!r}"
            )
    return violations


#: Oracles by registry name (see ProtocolSpec.oracles).
ORACLES: Dict[str, Oracle] = {
    "decided": check_decided,
    "agreement": check_agreement,
    "validity": check_validity,
    "avalanche": check_avalanche,
    "crusader": check_crusader,
    "weak-validity": check_weak_validity,
    "firing-squad": check_firing_squad,
    "fullinfo-consistency": check_fullinfo_consistency_oracle,
}


def run_oracles(names: Tuple[str, ...], result: ExecutionResult) -> List[str]:
    """All violations from the named oracles, prefixed by name."""
    violations: List[str] = []
    for name in names:
        oracle = ORACLES.get(name)
        if oracle is None:
            violations.append(f"[{name}] unknown oracle")
            continue
        violations.extend(f"[{name}] {text}" for text in oracle(result))
    return violations


def differential_mismatches(
    results: Mapping[str, ExecutionResult],
) -> List[str]:
    """Cross-protocol oracle over one scenario's runs (see module doc).

    ``results`` maps protocol name to its execution of the *same*
    scenario (identical inputs, fault set and seed, guaranteed by the
    campaign's shared-scenario generation for differential groups).
    """
    names = sorted(results)
    if len(names) < 2:
        return []
    violations: List[str] = []
    reference = results[names[0]]
    faulty = frozenset(reference.faulty_ids)
    correct_inputs = {
        reference.inputs[process_id]
        for process_id in reference.config.process_ids
        if process_id not in faulty
    }
    unanimous = (
        sorted(correct_inputs, key=repr)[0]
        if len(correct_inputs) == 1
        else None
    )
    for name in names[1:]:
        other = results[name]
        if other.inputs != reference.inputs or frozenset(
            other.faulty_ids
        ) != faulty:
            violations.append(
                f"differential scenario mismatch between {names[0]} and "
                f"{name}: inputs or fault sets differ (campaign bug)"
            )
            continue
        if not faulty and other.decisions != reference.decisions:
            violations.append(
                f"fault-free divergence: {names[0]} decided "
                f"{reference.decisions!r} but {name} decided "
                f"{other.decisions!r}"
            )
    if unanimous is not None and not is_bottom(unanimous):
        for name in names:
            wrong = {
                process_id: results[name].decisions.get(process_id, BOTTOM)
                for process_id in results[name].correct_ids
                if results[name].decisions.get(process_id, BOTTOM) != unanimous
            }
            if wrong:
                violations.append(
                    f"co-decision violated: unanimous correct input "
                    f"{unanimous!r} but {name} decided {wrong!r}"
                )
    return violations


__all__ = [
    "ORACLES",
    "Oracle",
    "check_agreement",
    "check_avalanche",
    "check_budget",
    "check_crusader",
    "check_decided",
    "check_firing_squad",
    "check_fullinfo_consistency_oracle",
    "check_validity",
    "check_weak_validity",
    "differential_mismatches",
    "run_oracles",
]
