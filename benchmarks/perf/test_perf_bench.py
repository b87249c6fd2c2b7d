"""Smoke test of the benchmark's plumbing (not of any timing).

Run explicitly — ``python -m pytest benchmarks/perf`` — it is not part
of the tier-1 ``testpaths``.  ``--smoke`` runs the same code as the
real benchmark on grids cut down to finish in seconds.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _smoke(tmp_path: pathlib.Path, *flags: str) -> dict:
    output = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--output",
         str(output), *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (report,) = json.loads(output.read_text())["sets"]
    assert sorted(report) == sorted(WORKLOADS)
    return report


def _check_names(listed: list, report: dict) -> None:
    names = [entry["name"] for entry in listed]
    assert len(set(names)) == len(names)
    for name in names + WORKLOADS:
        assert NAME.fullmatch(name), name
    for workload, result in report.items():
        for name in names:
            assert isinstance(result["metrics"][name], (int, float)), (
                workload, name,
            )
        assert result["attempted"] >= 1
        assert result["failed_share"] == 0, result["problems"]


def test_untraced_smoke_reports_every_end_to_end_metric(tmp_path):
    report = _smoke(tmp_path)
    _check_names(SPEC["end_to_end"], report)
    for result in report.values():
        for name in result["metrics"]:
            assert result["metrics"][name] > 0, name


def test_traced_smoke_attributes_every_pass(tmp_path):
    report = _smoke(tmp_path, "--traced")
    _check_names(SPEC["per_layer"], report)
    for workload, result in report.items():
        shares = result["layer_shares"]
        # Self times partition the root span: nothing is counted twice.
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6), workload
        assert all(share >= -1e-9 for share in shares.values()), shares
        assert 0.0 <= result["metrics"]["unattributed_share"] <= 1.0


def test_contract_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "eig-sweep", "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(
        entry["name"] for entry in SPEC["end_to_end"]
    )
