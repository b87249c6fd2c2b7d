"""Event-log rotation: size-capped parts, reassembled on read."""

import json
import os
import subprocess
import sys

from repro.adversary import EquivocatingAdversary
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.obs import (
    EventLog,
    Observer,
    log_paths,
    observing,
    read_log,
    validate_records,
)


class TestRotation:
    def _write_capped(self, config4, path, cap_bytes):
        log = EventLog(path, cap_bytes=cap_bytes)
        with observing(Observer(events=log)):
            run_compact_byzantine_agreement(
                config4, {1: 1, 2: 0, 3: 1, 4: 0},
                value_alphabet=[0, 1], k=2,
                adversary=EquivocatingAdversary([4], 0, 1),
            )

    def test_cap_splits_the_log_into_parts(self, config4, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_capped(config4, path, cap_bytes=2000)
        parts = sorted(tmp_path.glob("events.jsonl.part-*"))
        assert path.exists()
        assert parts
        for part in [path, *parts]:
            assert part.stat().st_size <= 2000

    def test_records_never_split_across_parts(self, config4, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_capped(config4, path, cap_bytes=2000)
        for part in log_paths(path):
            for line in part.read_text().splitlines():
                json.loads(line)

    def test_read_log_reassembles_in_order(self, config4, tmp_path):
        capped = tmp_path / "capped" / "events.jsonl"
        capped.parent.mkdir()
        plain = tmp_path / "plain" / "events.jsonl"
        plain.parent.mkdir()
        self._write_capped(config4, capped, cap_bytes=2000)
        self._write_capped(config4, plain, cap_bytes=None)
        reassembled = read_log(capped)
        assert validate_records(reassembled) == []

        def deterministic(records):
            return [
                r for r in records if not r.get("nondeterministic")
            ]

        assert deterministic(reassembled) == deterministic(read_log(plain))
        steps = [r["step"] for r in reassembled]
        assert steps == sorted(steps)

    def test_uncapped_log_stays_a_single_file(self, config4, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_capped(config4, path, cap_bytes=None)
        assert list(tmp_path.glob("events.jsonl.part-*")) == []
        assert log_paths(path) == [path]


class TestLogPaths:
    def test_directory_collects_every_log_and_its_parts(self, tmp_path):
        (tmp_path / "a.jsonl").write_text("{}\n")
        (tmp_path / "a.jsonl.part-1").write_text("{}\n")
        (tmp_path / "b.trace.jsonl").write_text("{}\n")
        (tmp_path / "notes.txt").write_text("x\n")
        names = [p.name for p in log_paths(tmp_path)]
        assert names == ["a.jsonl", "a.jsonl.part-1", "b.trace.jsonl"]

    def test_parts_sort_numerically(self, tmp_path):
        base = tmp_path / "events.jsonl"
        base.write_text("{}\n")
        for n in (10, 2, 1):
            (tmp_path / f"events.jsonl.part-{n}").write_text("{}\n")
        names = [p.name for p in log_paths(base)]
        assert names == [
            "events.jsonl",
            "events.jsonl.part-1",
            "events.jsonl.part-2",
            "events.jsonl.part-10",
        ]

    def test_explicit_part_reads_just_that_part(self, tmp_path):
        part = tmp_path / "events.jsonl.part-2"
        part.write_text("{}\n")
        assert log_paths(part) == [part]


class TestRotationCli:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_run_ba_cap_then_validate_directory(self, tmp_path):
        path = tmp_path / "events.jsonl"
        subprocess.run(
            [sys.executable, "-m", "repro", "run-ba", "--t", "1",
             "--events", str(path),
             "--events-cap", "2000"],
            check=True, env=self._env(), capture_output=True,
        )
        assert list(tmp_path.glob("events.jsonl.part-*"))
        for target in (str(path), str(tmp_path)):
            result = subprocess.run(
                [sys.executable, "-m", "repro", "events", "validate",
                 target],
                check=True, env=self._env(), capture_output=True,
            )
            # one ``send`` record per sender per round, one ``state``
            # record per round
            assert b"OK: 21 record(s)" in result.stdout

    def test_cap_without_events_is_a_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run-ba", "--t", "1",
             "--events-cap", "2000"],
            env=self._env(), capture_output=True,
        )
        assert result.returncode == 2
