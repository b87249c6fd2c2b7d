"""A result's checkpoint form: everything but the live processes, pickled.

Process objects can hold closures (decision rules), which pickle
refuses, so a saved or shipped result drops them; everything else —
decisions, rounds, metrics, trace, inputs — must survive a pickle
round trip whole, singleton markers (:data:`BOTTOM`, CRASHED, null
messages) included, and the accessors must not need the processes.
"""

import dataclasses
import pickle

import pytest

from repro.adversary import EquivocatingAdversary
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.types import BOTTOM


def reload(result):
    """``result`` without its processes, through a pickle round trip."""
    stripped = dataclasses.replace(result, processes={})
    return pickle.loads(pickle.dumps(stripped))


@pytest.fixture
def result(config4):
    inputs = {p: p % 2 for p in config4.process_ids}
    return run_compact_byzantine_agreement(
        config4,
        inputs,
        value_alphabet=[0, 1],
        k=2,
        adversary=EquivocatingAdversary([4], 0, 1),
        record_trace=True,
    )


class TestRoundtrip:
    def test_scalars_survive(self, result):
        restored = reload(result)
        assert restored.decisions == result.decisions
        assert restored.decision_rounds == result.decision_rounds
        assert restored.rounds == result.rounds
        assert restored.faulty_ids == result.faulty_ids
        assert restored.inputs == result.inputs

    def test_metrics_survive(self, result):
        restored = reload(result)
        assert restored.metrics.total_bits == result.metrics.total_bits
        assert restored.metrics.bits_by_round() == result.metrics.bits_by_round()

    def test_trace_survives_with_singleton_identity(self, result):
        restored = reload(result)
        assert len(restored.trace.envelopes) == len(result.trace.envelopes)
        # Singleton identity is preserved through pickling: any BOTTOM
        # inside restored snapshots must be *the* BOTTOM.
        for round_number in restored.trace.rounds:
            for snapshot in restored.trace.snapshots_in_round(
                round_number
            ).values():
                value = snapshot.get("decision")
                if value is not None and not value:
                    assert value is BOTTOM or value == 0

    def test_answer_vector_still_works(self, result):
        restored = reload(result)
        assert restored.answer_vector() == result.answer_vector()

    def test_accessors_read_the_same_from_a_loaded_result(self, result):
        """``correct_ids``/``is_deciding`` must not depend on the live
        ``processes`` table the checkpoint form strips."""
        restored = reload(result)
        assert result.correct_ids and result.is_deciding()
        assert restored.correct_ids == result.correct_ids
        assert restored.is_deciding() == result.is_deciding()
        assert restored.answer_vector() == result.answer_vector()

    def test_loaded_all_bottom_result_is_not_deciding(self, result):
        undecided = dataclasses.replace(
            result, decisions={pid: BOTTOM for pid in result.decisions}
        )
        assert not undecided.is_deciding()
        restored = reload(undecided)
        assert restored.correct_ids == result.correct_ids
        assert not restored.is_deciding()
