"""The inert switches the frozen benchmark harness still passes.

Asynchrony is a test oracle now (``tests/runtime/reference_async.py``).
What is left of the old production switch exists only because the
frozen ``benchmarks/perf`` harness still passes it:
``sweep(..., scheduler=)``, ``CampaignSettings.scheduler`` and
``run-ba --scheduler``.  The same goes for ``Observer(trace=)``: every
event log is causal now, so there is no trace mode to switch on.  These
tests prove that none of them does anything, and fail once the harness
stops naming them — that is when the stubs go.
"""

import os
import pathlib
import pickle
import subprocess
import sys

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.avalanche.protocol import avalanche_factory
from repro.fuzz.campaign import CampaignSettings, run_campaign
from repro.obs import EventLog, Observer, observing
from repro.types import SystemConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_sweep(**kwargs):
    config = SystemConfig(n=4, t=1)
    return sweep(
        avalanche_factory(), config,
        input_patterns=[{p: p % 2 for p in config.process_ids}],
        fault_sets=[(4,)],
        adversary_makers=standard_adversary_makers()[:2],
        seeds=(0, 1), run_full_rounds=3, workers=1, **kwargs,
    )


def run_repro(*argv):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in [environment.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=environment, cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )


def test_sweep_ignores_scheduler():
    assert pickle.dumps(run_sweep(scheduler="async")) == pickle.dumps(
        run_sweep()
    )


def test_campaign_ignores_scheduler():
    settings = CampaignSettings(seed=5, cases=3)
    assert run_campaign(
        CampaignSettings(seed=5, cases=3, scheduler="async")
    ).to_json() == run_campaign(settings).to_json()


def test_run_ba_ignores_scheduler():
    argv = ("run-ba", "--t", "1", "--seed", "3")
    plain = run_repro(*argv)
    flagged = run_repro(*argv, "--scheduler", "async")
    assert plain.returncode == flagged.returncode == 0
    assert flagged.stdout == plain.stdout


def test_the_benchmark_harness_still_names_them():
    assert any(
        "scheduler" in path.read_text()
        for path in (ROOT / "benchmarks" / "perf").glob("*.py")
    )


def test_fuzz_scheduler_flag_is_gone():
    assert run_repro("fuzz", "--scheduler", "async").returncode == 2


def test_observer_ignores_trace(tmp_path):
    logs = []
    for name, observer in (
        ("plain", lambda log: Observer(events=log, spans=False)),
        ("traced", lambda log: Observer(events=log, spans=False, trace=True)),
    ):
        path = tmp_path / f"{name}.jsonl"
        with observing(observer(EventLog(path))):
            run_sweep()
        logs.append([
            line for line in path.read_bytes().splitlines()
            if b'"nondeterministic": true' not in line
        ])
    assert logs[0] == logs[1]


def test_the_benchmark_harness_still_passes_trace():
    assert any(
        "trace=True" in path.read_text()
        for path in (ROOT / "benchmarks" / "perf").glob("*.py")
    )


def test_run_ba_trace_flag_is_gone():
    assert run_repro("run-ba", "--t", "1", "--trace").returncode == 2
