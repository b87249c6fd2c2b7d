"""Tests for result persistence."""

import dataclasses

import pytest

from repro.adversary import EquivocatingAdversary
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.errors import ConfigurationError
from repro.runtime.checkpoint import load_result, save_result
from repro.types import BOTTOM, SystemConfig


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
    def test_scalars_survive(self, result, tmp_path):
        path = tmp_path / "run.pkl"
        save_result(result, path)
        restored = load_result(path)
        assert restored.decisions == result.decisions
        assert restored.decision_rounds == result.decision_rounds
        assert restored.rounds == result.rounds
        assert restored.faulty_ids == result.faulty_ids
        assert restored.inputs == result.inputs

    def test_metrics_survive(self, result, tmp_path):
        path = tmp_path / "run.pkl"
        save_result(result, path)
        restored = load_result(path)
        assert restored.metrics.total_bits == result.metrics.total_bits
        assert restored.metrics.bits_by_round() == result.metrics.bits_by_round()

    def test_trace_survives_with_singleton_identity(self, result, tmp_path):
        path = tmp_path / "run.pkl"
        save_result(result, path)
        restored = load_result(path)
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

    def test_processes_dropped(self, result, tmp_path):
        path = tmp_path / "run.pkl"
        save_result(result, path)
        assert load_result(path).processes == {}

    def test_answer_vector_still_works(self, result, tmp_path):
        path = tmp_path / "run.pkl"
        save_result(result, path)
        restored = load_result(path)
        assert restored.answer_vector() == result.answer_vector()

    def test_accessors_read_the_same_from_a_loaded_result(
        self, result, tmp_path
    ):
        """``correct_ids``/``is_deciding`` must not depend on the live
        ``processes`` table the checkpoint strips."""
        path = tmp_path / "run.pkl"
        save_result(result, path)
        restored = load_result(path)
        assert result.correct_ids and result.is_deciding()
        assert restored.correct_ids == result.correct_ids
        assert restored.is_deciding() == result.is_deciding()
        assert restored.answer_vector() == result.answer_vector()

    def test_loaded_all_bottom_result_is_not_deciding(self, result, tmp_path):
        undecided = dataclasses.replace(
            result, decisions={pid: BOTTOM for pid in result.decisions}
        )
        assert not undecided.is_deciding()
        path = tmp_path / "undecided.pkl"
        save_result(undecided, path)
        restored = load_result(path)
        assert restored.correct_ids == result.correct_ids
        assert not restored.is_deciding()


class TestValidation:
    def test_rejects_foreign_pickles(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ConfigurationError):
            load_result(path)

    def test_rejects_wrong_version(self, result, tmp_path):
        import pickle

        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps({"version": 0, "result": None}))
        with pytest.raises(ConfigurationError):
            load_result(path)

    def test_rejects_the_layout_before_this_one(self, result, tmp_path):
        """A version-1 file embeds a meter with a per-link table: it must
        be refused, not handed back with the stale attribute."""
        import pickle

        from repro.runtime.checkpoint import FORMAT_VERSION

        assert FORMAT_VERSION == 2
        path = tmp_path / "v1.pkl"
        save_result(result, path)
        payload = pickle.loads(path.read_bytes())
        assert load_result(path).metrics.total_bits == result.metrics.total_bits
        payload["version"] = 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ConfigurationError, match="version-2"):
            load_result(path)
