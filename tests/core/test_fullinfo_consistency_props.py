"""Property-based tests for :func:`check_fullinfo_consistency`.

Valid state families — built exactly the way the full-information
protocol builds them, with arbitrary legal faulty components — are
always accepted; each of the checker's three conditions is then
falsified by a targeted mutation and must raise
:class:`SimulationMismatch`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.simulation import SimulationMismatch, check_fullinfo_consistency

from tests.arrays.builders import uniform_array

N = 4
ALPHABET = (0, 1)

inputs_strategy = st.tuples(*[st.sampled_from(ALPHABET)] * N)
faulty_strategy = st.sampled_from([None, 1, 2, 3, 4])
rounds_strategy = st.integers(min_value=1, max_value=3)
leaves_strategy = st.lists(
    st.sampled_from(ALPHABET), min_size=20, max_size=20
)


def build_family(inputs, faulty_pid, rounds, leaves):
    """An honest full-information state family with legal faulty parts.

    ``leaves`` feeds the faulty components: component ``q`` of a
    round-``j`` state must be *some* depth-``j-1`` value array, so we
    use uniform arrays over drawn alphabet leaves (faulty senders may
    equivocate — each receiver draws its own leaf).
    """
    correct = [pid for pid in range(1, N + 1) if pid != faulty_pid]
    inputs_map = {pid: inputs[pid - 1] for pid in range(1, N + 1)}
    cursor = iter(leaves * (rounds * N + 1))

    states = {pid: [inputs_map[pid]] for pid in correct}
    for round_number in range(1, rounds + 1):
        fresh = {}
        for pid in correct:
            components = []
            for sender in range(1, N + 1):
                if sender == faulty_pid:
                    components.append(
                        uniform_array(next(cursor), round_number - 1, N)
                    )
                else:
                    components.append(states[sender][round_number - 1])
            fresh[pid] = tuple(components)
        for pid in correct:
            states[pid].append(fresh[pid])
    return states, correct, inputs_map


def check(states, correct, inputs_map):
    check_fullinfo_consistency(
        states, correct, inputs_map, N, value_alphabet=ALPHABET
    )


@settings(max_examples=60, deadline=None)
@given(inputs_strategy, faulty_strategy, rounds_strategy, leaves_strategy)
def test_honest_families_are_accepted(inputs, faulty_pid, rounds, leaves):
    states, correct, inputs_map = build_family(
        inputs, faulty_pid, rounds, leaves
    )
    check(states, correct, inputs_map)  # must not raise


@settings(max_examples=40, deadline=None)
@given(inputs_strategy, rounds_strategy, leaves_strategy)
def test_wrong_depth_faulty_component_rejected(inputs, rounds, leaves):
    faulty_pid = 2
    states, correct, inputs_map = build_family(
        inputs, faulty_pid, rounds, leaves
    )
    victim = correct[0]
    state = list(states[victim][rounds])
    # A round-r state's faulty component must have depth r-1; give it r.
    state[faulty_pid - 1] = uniform_array(leaves[0], rounds, N)
    states[victim][rounds] = tuple(state)
    with pytest.raises(SimulationMismatch):
        check(states, correct, inputs_map)


@settings(max_examples=40, deadline=None)
@given(inputs_strategy, faulty_strategy, rounds_strategy, leaves_strategy)
def test_mismatched_correct_component_rejected(
    inputs, faulty_pid, rounds, leaves
):
    states, correct, inputs_map = build_family(
        inputs, faulty_pid, rounds, leaves
    )
    victim, witness = correct[0], correct[1]
    state = list(states[victim][1])
    # Component for a correct sender must equal the sender's round-0
    # state (its input, a scalar here) — flip it within the alphabet.
    state[witness - 1] = 1 - inputs_map[witness]
    states[victim][1] = tuple(state)
    with pytest.raises(SimulationMismatch):
        check(states, correct, inputs_map)


@settings(max_examples=40, deadline=None)
@given(inputs_strategy, faulty_strategy, rounds_strategy, leaves_strategy)
def test_bad_round0_state_rejected(inputs, faulty_pid, rounds, leaves):
    states, correct, inputs_map = build_family(
        inputs, faulty_pid, rounds, leaves
    )
    victim = correct[0]
    states[victim][0] = 1 - inputs_map[victim]
    with pytest.raises(SimulationMismatch):
        check(states, correct, inputs_map)


@settings(max_examples=40, deadline=None)
@given(inputs_strategy, faulty_strategy, rounds_strategy, leaves_strategy)
def test_non_n_vector_state_rejected(inputs, faulty_pid, rounds, leaves):
    states, correct, inputs_map = build_family(
        inputs, faulty_pid, rounds, leaves
    )
    victim = correct[0]
    state = states[victim][rounds]
    states[victim][rounds] = state + (state[0],)  # width n+1
    with pytest.raises(SimulationMismatch):
        check(states, correct, inputs_map)


@settings(max_examples=40, deadline=None)
@given(inputs_strategy, rounds_strategy, leaves_strategy)
def test_out_of_alphabet_leaf_rejected(inputs, rounds, leaves):
    faulty_pid = 3
    states, correct, inputs_map = build_family(
        inputs, faulty_pid, rounds, leaves
    )
    victim = correct[0]
    state = list(states[victim][rounds])
    state[faulty_pid - 1] = uniform_array(7, rounds - 1, N)
    states[victim][rounds] = tuple(state)
    with pytest.raises(SimulationMismatch):
        check(states, correct, inputs_map)
