"""The observability CLI surface: --events recording, `repro events
export` and `repro status`, the one reader and validator of a log."""

import json

import pytest

from repro.cli import EVENT_SCHEMA_VERSION, main
from repro.obs import status_from_records
from repro.obs.events import SCHEMA_VERSION, read_log

from tests.obs.causal_dag import build_dags


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
        assert status_from_records(read_log(path))["degraded"] == []

    def test_the_log_is_the_causal_trace(self, recorded_log, tmp_path):
        path, out = recorded_log
        assert "trace:" not in out
        assert [child.name for child in tmp_path.iterdir()] == [path.name]
        (dag,) = build_dags(read_log(path))
        assert dag.deliver_edges()

    def test_log_covers_the_run(self, recorded_log):
        path, _ = recorded_log
        kinds = {record["kind"] for record in read_log(path)}
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
    def test_events_lists_only_export(self, capsys):
        with pytest.raises(SystemExit):
            main(["events", "--help"])
        assert "{export}" in capsys.readouterr().out

    def test_summarize_text(self, recorded_log, capsys):
        """The traffic summary is part of ``repro status``."""
        path, _ = recorded_log
        code, out = run_cli(capsys, "status", str(path))
        assert code == 0
        assert "runs: started 1  ended 1" in out
        assert "per-round traffic" in out

    def test_summarize_json(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(
            capsys, "status", str(path), "--format", "json"
        )
        assert code == 0
        status = json.loads(out)
        assert status["runs"]["started"] == 1
        assert status["counters"]["runs"] == 1
        assert status["per_round"]

    def test_profile(self, recorded_log, capsys):
        """So is the span profile."""
        path, _ = recorded_log
        code, out = run_cli(capsys, "status", str(path))
        assert code == 0
        assert "engine.run" in out
        code, out = run_cli(
            capsys, "status", str(path), "--format", "json"
        )
        assert json.loads(out)["spans"]["engine.run"]["count"] == 1

    def test_validate_ok(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(capsys, "status", str(path))
        assert code == 0
        assert "degraded:" not in out

    def test_validate_rejects_a_v1_log(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"v": 1, "kind": "round_start", "run": "r1", "round": 1, '
            '"step": 1}\n'
        )
        code, out = run_cli(capsys, "status", str(path))
        assert code == 1
        assert f"schema version 1 != {SCHEMA_VERSION}" in out

    def test_status_help_names_the_schema_version(self, capsys):
        assert EVENT_SCHEMA_VERSION == SCHEMA_VERSION
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"event schema v{SCHEMA_VERSION}" in out

    def test_validate_json(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(
            capsys, "status", str(path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped_lines"] == 0
        assert payload["degraded"] == []

    def test_validate_flags_bad_records(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            f'{{"v": {SCHEMA_VERSION}, "kind": "nope", "run": null, '
            '"round": 0, "step": 1}\n'
        )
        code, out = run_cli(capsys, "status", str(path))
        assert code == 1
        assert "unknown event kind" in out

    def test_validate_flags_a_step_that_does_not_advance(
        self, recorded_log, capsys
    ):
        path, _ = recorded_log
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[2:]))
        code, out = run_cli(capsys, "status", str(path), "--format", "json")
        assert code == 1
        status = json.loads(out)
        assert status["skipped_lines"] == 1
        (problem,) = status["degraded"]
        assert problem.startswith("record 3: step 3 does not advance")

    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys):
        for command in (("events", "export"), ("status",)):
            code, out = run_cli(
                capsys, *command, str(tmp_path / "missing.jsonl")
            )
            assert code == 2
            assert "error:" in out


def _torn(path):
    """``path`` with its final line cut mid-record, as a kill leaves it."""
    torn = path.with_name("torn.jsonl")
    text = path.read_text()
    torn.write_text(text[:-40])
    return torn, len(text.splitlines())


class TestStatusCommand:
    """``repro status`` prints every skip or fallback on one
    ``degraded:`` line and exits 1 unless the log is complete and every
    line was read."""

    def test_complete_log_exits_0(self, recorded_log, capsys):
        path, _ = recorded_log
        code, out = run_cli(capsys, "status", str(path))
        assert code == 0
        assert out.startswith("status: complete\n")
        assert "degraded:" not in out

    def test_in_flight_log_exits_1(self, recorded_log, capsys):
        path, _ = recorded_log
        lines = path.read_text().splitlines(keepends=True)
        cut = next(i for i, line in enumerate(lines)
                   if '"kind": "counters"' in line)
        path.write_text("".join(lines[:cut]))
        code, out = run_cli(capsys, "status", str(path))
        assert code == 1
        assert out.startswith("status: in-flight\n")
        assert "degraded:" not in out

    def test_torn_final_line_is_named_and_exits_1(self, recorded_log, capsys):
        path, _ = recorded_log
        _, complete = run_cli(capsys, "status", str(path))
        torn, last = _torn(path)
        code, out = run_cli(capsys, "status", str(torn))
        assert code == 1
        first, degraded, *rest = out.splitlines()
        assert degraded.startswith(f"degraded: {torn}:{last}: not valid JSON")
        # the full report still follows: only the torn profile is lost
        assert "counters:" in rest
        assert first == "status: complete"
        code, out = run_cli(capsys, "status", str(torn), "--format", "json")
        assert code == 1
        status = json.loads(out)
        assert status["skipped_lines"] == 1
        assert status["degraded"][0].startswith(f"{torn}:{last}:")

    def test_torn_final_line_fails_validate_and_export_reads_it(
        self, recorded_log, capsys
    ):
        path, _ = recorded_log
        torn, last = _torn(path)
        code, out = run_cli(capsys, "status", str(torn))
        assert code == 1
        assert f"{torn}:{last}: not valid JSON" in out
        output = torn.with_name("trace.json")
        code, out = run_cli(
            capsys, "events", "export", str(torn), "--output", str(output)
        )
        assert code == 1
        assert f"skipped {torn}:{last}: not valid JSON" in out
        assert json.loads(output.read_text())["traceEvents"]

    def test_degraded_pool_is_reported_and_exits_0(self, tmp_path, capsys):
        """A pool that fell back to serial execution lost no result."""
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({
            "v": SCHEMA_VERSION, "kind": "counters", "run": None,
            "round": 0, "step": 1,
            "counters": {"runs": 2, "sweep.pool.degraded": 1},
        }) + "\n")
        code, out = run_cli(capsys, "status", str(path))
        assert code == 0
        assert "degraded: sweep.pool.degraded = 1" in out.splitlines()
