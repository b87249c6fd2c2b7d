"""The EIG tree addressing of full-information states.

A full-information state after ``r`` rounds is a depth-``r`` value
array.  Read as a tree, the path ``(q_1, ..., q_k)`` from the root
means "``q_1`` said (in the newest round) that ``q_2`` said (one round
earlier) that ...": paths run in reverse chronological order, which is
how :mod:`repro.fullinfo.decision` reads relay chains off a state.
"""

import pytest

from repro.arrays.value_array import array_depth, count_leaves, leaf_at
from repro.errors import ProtocolViolation
from repro.fullinfo.protocol import full_information_factory
from repro.runtime.engine import run_protocol


@pytest.fixture
def view(config4):
    inputs = {1: "a", 2: "b", 3: "c", 4: "d"}
    result = run_protocol(
        full_information_factory(value_alphabet=["a", "b", "c", "d"]),
        config4,
        inputs,
        run_full_rounds=2,
    )
    return result.processes[1].state, inputs


class TestStructure:
    def test_depth(self, view):
        state, _ = view
        assert array_depth(state, 4) == 2

    def test_leaf_paths_reverse_chronological(self, view):
        state, inputs = view
        # Path (q1, q2): q1 said that q2's input was ...
        assert leaf_at(state, (3, 2)) == inputs[2]

    def test_subtree_is_senders_previous_state(self, view):
        state, inputs = view
        assert leaf_at(state, (2,)) == ("a", "b", "c", "d")

    def test_wrong_length_leaf_path_rejected(self, view):
        state, _ = view
        with pytest.raises(ProtocolViolation):
            leaf_at(state, (1, 2, 3))

    def test_leaves_enumerates_all(self, view):
        state, _ = view
        assert count_leaves(state) == 4**2
