"""The observability CLI surface: --events recording and `repro events`."""

import json

import pytest

from repro.cli import EVENT_SCHEMA_VERSION, main
from repro.obs.events import SCHEMA_VERSION, read_jsonl, validate_records
from repro.obs.trace import build_dags


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def recorded_log(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    code, out = run_cli(
        capsys, "run-ba", "--t", "1", "--events", str(path)
    )
    assert code == 0
    return path, out


class TestRunBAEvents:
    def test_writes_a_valid_log(self, recorded_log):
        path, out = recorded_log
        assert f"events: wrote {path}" in out
        assert validate_records(read_jsonl(path)) == []

    def test_the_log_is_the_causal_trace(self, recorded_log, tmp_path):
        path, out = recorded_log
        assert "trace:" not in out
        assert [child.name for child in tmp_path.iterdir()] == [path.name]
        (dag,) = build_dags(read_jsonl(path))
        assert dag.deliver_edges()

    def test_log_covers_the_run(self, recorded_log):
        path, _ = recorded_log
        kinds = {record["kind"] for record in read_jsonl(path)}
        assert {"run_start", "round_end", "send", "decide",
                "run_end", "counters"} <= kinds

    def test_no_events_flag_records_nothing(self, capsys, tmp_path):
        code, out = run_cli(capsys, "run-ba", "--t", "1")
        assert code == 0
        assert "events:" not in out
        assert list(tmp_path.iterdir()) == []


class TestIncludeAdversaryTraffic:
    def test_meters_more_bits(self, capsys):
        _, plain = run_cli(capsys, "run-ba", "--t", "1")
        code, metered = run_cli(
            capsys, "run-ba", "--t", "1", "--include-adversary-traffic"
        )
        assert code == 0
        assert "(metering includes adversary traffic)" in metered

        def bits(out):
            line = next(
                l for l in out.splitlines() if l.startswith("message bits:")
            )
            return int(line.split(":")[1])

        assert bits(metered) > bits(plain)

    def test_decisions_unchanged(self, capsys):
        _, plain = run_cli(capsys, "run-ba", "--t", "1")
        _, metered = run_cli(
            capsys, "run-ba", "--t", "1", "--include-adversary-traffic"
        )

        def line(out, prefix):
            return next(l for l in out.splitlines() if l.startswith(prefix))

        assert line(plain, "decisions:") == line(metered, "decisions:")
        assert line(plain, "rounds:") == line(metered, "rounds:")


class TestEventsCommand:
    def test_summarize_text(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(capsys, "events", "summarize", str(path))
        assert code == 0
        assert "runs: 1" in out
        assert "per-round traffic" in out

    def test_summarize_json(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(
            capsys, "events", "summarize", str(path), "--format", "json"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["runs"] == 1
        assert summary["counters"]["runs"] == 1
        assert summary["per_round"]

    def test_profile(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(capsys, "events", "profile", str(path))
        assert code == 0
        assert "engine.run" in out
        code, out = run_cli(
            capsys, "events", "profile", str(path), "--format", "json"
        )
        assert json.loads(out)["spans"]["engine.run"]["count"] == 1

    def test_validate_ok(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(capsys, "events", "validate", str(path))
        assert code == 0
        assert f"conform to event schema v{SCHEMA_VERSION}" in out

    def test_validate_rejects_a_v1_log(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"v": 1, "kind": "round_start", "run": "r1", "round": 1, '
            '"step": 1}\n'
        )
        code, out = run_cli(capsys, "events", "validate", str(path))
        assert code == 1
        assert f"schema version 1 != {SCHEMA_VERSION}" in out

    def test_validate_help_names_the_schema_version(self, capsys):
        assert EVENT_SCHEMA_VERSION == SCHEMA_VERSION
        with pytest.raises(SystemExit):
            main(["events", "--help"])
        assert f"event schema v{SCHEMA_VERSION}" in capsys.readouterr().out

    def test_validate_json(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(
            capsys, "events", "validate", str(path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["problems"] == []

    def test_validate_flags_bad_records(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "kind": "nope", "round": 0, "step": 1}\n')
        code, out = run_cli(capsys, "events", "validate", str(path))
        assert code == 1
        assert "unknown event kind" in out

    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "events", "summarize", str(tmp_path / "missing.jsonl")
        )
        assert code == 2
        assert "error:" in out
