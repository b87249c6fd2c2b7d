"""Rollup records and ``repro status``: fleet telemetry from artifacts."""

import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import Future

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import SweepCell, SweepContext
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.avalanche.protocol import avalanche_factory
from repro.fuzz.campaign import CampaignSettings, replay_case, run_campaign
from repro.fuzz.case import FuzzCase
from repro.obs import (
    EventLog,
    Observer,
    load_status,
    observing,
    render_status,
    status_from_records,
)
from repro.obs.events import SCHEMA_VERSION

from tests.analysis.test_parallel import InertPool


def pooled_sweep_log(config4, close=True):
    log = EventLog()
    patterns = [{p: p % 2 for p in config4.process_ids}]
    with observing(Observer(events=log), close=close):
        sweep(
            avalanche_factory(), config4, patterns, [(3,)],
            standard_adversary_makers()[:2], seeds=(0, 1),
            run_full_rounds=3, workers=2,
        )
    return log.records


class TestRollupRecords:
    def test_pooled_sweep_emits_plan_and_chunk_rollups(self, config4):
        records = pooled_sweep_log(config4)
        assert status_from_records(records)["degraded"] == []
        rollups = [r for r in records if r["kind"] == "rollup"]
        plans = [r for r in rollups if r["scope"] == "plan"]
        chunks = [r for r in rollups if r["scope"] == "chunk"]
        assert len(plans) == 1
        assert plans[0]["cells"] == 4
        assert chunks
        assert sum(r["cells"] for r in chunks) == 4

    def test_chunk_deltas_sum_to_the_final_counters(self, config4):
        """Replaying the deltas reproduces the registry at any cut."""
        records = pooled_sweep_log(config4)
        summed = {}
        for record in records:
            if record["kind"] == "rollup":
                for name, delta in record["counters"].items():
                    summed[name] = summed.get(name, 0) + delta
        final = next(
            r["counters"] for r in records if r["kind"] == "counters"
        )
        for name, value in summed.items():
            assert final[name] == value, name

    def test_worker_samples_use_stable_slots(self, config4):
        records = pooled_sweep_log(config4)
        samples = [r for r in records if r["kind"] == "worker_sample"]
        assert samples
        assert all(r["nondeterministic"] is True for r in samples)
        slots = {r["worker"] for r in samples}
        # slots are densely numbered from 0 in first-seen order — the
        # raw worker pids never reach the log
        assert slots == set(range(len(slots)))
        assert sum(r["cells"] for r in samples) == 4

    def test_emit_rollup_reports_deltas_not_totals(self):
        log = EventLog()
        observer = Observer(events=log)
        observer.registry.count("x.one", 5)
        observer.emit_rollup("chunk", 0, 1)
        observer.registry.count("x.one", 2)
        observer.registry.count("x.two", 3)
        observer.emit_rollup("chunk", 1, 1)
        first, second = (
            r for r in log.records if r["kind"] == "rollup"
        )
        assert first["counters"] == {"x.one": 5}
        assert second["counters"] == {"x.one": 2, "x.two": 3}


class TestStatus:
    def test_complete_pooled_sweep(self, config4):
        records = pooled_sweep_log(config4)
        status = status_from_records(records)
        assert status["phase"] == "complete"
        assert status["cells"]["planned"] == 4
        assert status["cells"]["done"] == 4
        assert status["progress"] == 1.0
        # The planned pool size is deterministic; how many slots
        # collected a chunk depends on OS scheduling.
        assert [pool["planned"] for pool in status["pools"]] == [2]
        assert 1 <= len(status["workers"]) <= 2
        assert sum(row["cells"] for row in status["workers"]) == 4
        rendered = render_status(status)
        assert "status: complete" in rendered
        assert "progress 100.0%" in rendered
        assert "per-worker throughput (nondeterministic):" in rendered
        assert "pool: 2 worker(s)" in rendered

    def test_pool_reports_the_plan_when_one_slot_collects_everything(
        self, config4, monkeypatch
    ):
        """A two-worker plan whose second worker never collects a chunk."""
        blob = pickle.dumps("an outcome")

        class OneWorkerPool(InertPool):
            def submit(self, function, chunk):
                future = Future()
                future.set_result(([blob] * len(chunk), 900, 0.25, {}))
                return future

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", OneWorkerPool)
        context = SweepContext(
            factory=avalanche_factory(), config=config4,
            adversary_makers=tuple(standard_adversary_makers()[:1]),
            judge=None, max_rounds=3, run_full_rounds=None,
            sizer=None, is_null=None,
        )
        cells = [
            SweepCell(index=i, inputs={}, faulty=(), adversary_name="x",
                      adversary_index=0, seed=0)
            for i in range(2)
        ]  # one chunk each at workers=2
        log = EventLog()
        with observing(Observer(events=log)):
            parallel.execute_cells(context, cells, workers=2)
        assert status_from_records(log.records)["degraded"] == []
        status = status_from_records(log.records)
        assert [pool["planned"] for pool in status["pools"]] == [2]
        assert [row["chunks"] for row in status["workers"]] == [2]

    def test_interrupted_run_reconstructs_from_the_torn_log(
        self, config4, tmp_path
    ):
        """The acceptance shape: a killed run, reconstructed from disk."""
        records = pooled_sweep_log(config4)
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(r, sort_keys=True) for r in records]
        # cut before the final counters dump and tear the last line
        cut = next(
            i for i, r in enumerate(records) if r["kind"] == "counters"
        )
        torn = "\n".join(lines[:cut]) + "\n" + lines[cut][:20]
        path.write_text(torn)
        status = load_status(path)
        assert status["phase"] == "in-flight"
        assert status["skipped_lines"] == 1
        assert status["cells"]["planned"] == 4
        assert status["cells"]["done"] == 4
        # counters reconstructed by summing rollup deltas
        assert status["counters"]
        rendered = render_status(status)
        assert "in-flight" in rendered
        assert f"degraded: {path}:{cut + 1}: not valid JSON" in rendered
        assert "counters:" in rendered

    def test_serial_cells_do_not_count_against_the_plan(self):
        """A case replayed next to a pooled fuzz campaign runs serially
        (belonging to no plan); progress is pooled-done over planned,
        never > 100%."""
        log = EventLog()
        with observing(Observer(events=log)):
            run_campaign(CampaignSettings(seed=0, cases=2, workers=2))
            replay_case(FuzzCase.build(
                protocol="avalanche", n=4, t=1, seed=2026,
                inputs={1: 1, 2: 1, 3: 0, 4: 1}, faulty=(3,),
            ))
        status = status_from_records(log.records)
        cells = status["cells"]
        assert cells["serial"] > 0
        assert cells["pooled"] == cells["planned"] > 0
        assert cells["done"] == cells["pooled"] + cells["serial"]
        assert status["progress"] == 1.0
        rendered = render_status(status)
        assert "progress 100.0%" in rendered
        assert f"serial {cells['serial']}" in rendered

    @pytest.mark.parametrize("cells,counters", [
        ("NaN", "{}"),
        ('"4"', "{}"),
        ("4", "[1, 2]"),
    ])
    def test_malformed_rollup_is_skipped_not_read(
        self, tmp_path, cells, counters
    ):
        """A bare NaN fails the parse; a string ``cells`` or a list
        ``counters`` fails the schema.  Either way ``repro status``
        counts the line as skipped instead of crashing on it."""
        good = {
            "v": SCHEMA_VERSION, "kind": "rollup", "run": None,
            "round": 0, "step": 1, "scope": "plan", "index": 0,
            "cells": 3, "counters": {"runs": 3},
        }
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(good) + "\n"
            + '{"v": %d, "kind": "rollup", "run": null, "round": 0, '
            '"step": 2, "scope": "plan", "index": 1, "cells": %s, '
            '"counters": %s}\n' % (SCHEMA_VERSION, cells, counters)
        )
        status = load_status(path)
        assert status["skipped_lines"] == 1
        assert status["records"] == 1
        assert status["cells"]["planned"] == 3
        assert status["counters"] == {"runs": 3}
        (skipped,) = status["degraded"]
        assert skipped.startswith(
            f"{path}:2: not valid JSON" if cells == "NaN"
            else "record 1: rollup: field"
        )
        assert f"degraded: {skipped}" in render_status(status)

    def test_every_pool_of_a_three_protocol_campaign(self):
        """Each default protocol runs its own pool; all three are
        listed, and the text prints their totals."""
        log = EventLog()
        with observing(Observer(events=log)):
            report = run_campaign(
                CampaignSettings(seed=2026, cases=10, workers=2)
            )
        assert len(report.protocols) == 3
        status = status_from_records(log.records)
        pools = status["pools"]
        assert [pool["planned"] for pool in pools] == [2, 2, 2]
        assert status["cells"]["planned"] == status["cells"]["pooled"] == 30
        # every worker row belongs to some pool
        assert sum(
            row["cells"] for pool in pools for row in pool["workers"]
        ) == 30
        rendered = render_status(status)
        assert rendered.count("  pool: 2 worker(s)") == 3
        wall = round(sum(pool["wall_s"] for pool in pools), 6)
        assert f"  pools: 3 run(s), wall {wall}s" in rendered

    def test_status_of_an_empty_log(self):
        status = status_from_records([])
        assert status["phase"] == "in-flight"
        assert status["progress"] is None
        assert render_status(status).startswith("status: in-flight")


class TestFreshProcessGoldens:
    """Satellite: byte-identical CLI output across fresh processes."""

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _artifact(self, tmp_path):
        path = tmp_path / "events.jsonl"
        subprocess.run(
            [sys.executable, "-m", "repro", "run-ba", "--t", "1",
             "--events", str(path)],
            check=True, env=self._env(), capture_output=True,
        )
        return path

    def _stdout(self, *argv):
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            check=True, env=self._env(), capture_output=True,
        )
        return result.stdout

    def test_status_renders_identical_bytes(self, tmp_path):
        path = self._artifact(tmp_path)
        outputs = [self._stdout("status", str(path)) for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert b"status: complete" in outputs[0]

    def test_profile_renders_identical_bytes(self, tmp_path):
        path = self._artifact(tmp_path)
        outputs = [
            self._stdout("status", str(path), "--format", "json")
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["spans"]
