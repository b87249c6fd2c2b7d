"""tools/bench_pairs.py: pairing order, the verdict rule, the exit codes."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(rate, bits=100.0, failed=0):
    return {
        "failed": failed,
        "metrics": {
            "executions_per_s": {"value": rate},
            "bits_per_execution": {"value": bits},
        },
    }


def drive(tool, monkeypatch, parent, change, change_line=None):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, seed))
        if checkout.name == "parent":
            return line(parent[seed - 1])
        return line(change[seed - 1], **(change_line or {}))

    monkeypatch.setattr(tool, "run", fake_run)
    status = tool.main([
        "--parent", "parent", "--change", "change",
        "--workload", "compact-sweep", "--seeds", f"1-{len(parent)}",
    ])
    return status, calls


def test_seed_ranges(tool):
    assert tool.seeds("1901-1910") == list(range(1901, 1911))
    assert tool.seeds("7") == [7]


def test_clear_gain_alternates_sides_and_exits_zero(tool, monkeypatch, capsys):
    parent = [50, 51, 49, 50, 52, 50, 49, 51, 50, 50]
    change = [rate * 1.5 for rate in parent]
    status, calls = drive(tool, monkeypatch, parent, change)
    assert status == 0
    assert calls[:4] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    out = capsys.readouterr().out
    assert "change wins 10/10" in out and "-> GAIN" in out


def test_eight_wins_of_ten_is_no_gain(tool, monkeypatch, capsys):
    parent = [50.0] * 10
    change = [75.0] * 8 + [49.0] * 2
    status, _ = drive(tool, monkeypatch, parent, change)
    assert status == 2
    assert "change wins 8/10 (loses 2)" in capsys.readouterr().out


def test_gap_inside_the_parents_own_spread_is_no_gain(tool, monkeypatch):
    parent = [40, 60, 40, 60, 40, 60, 40, 60, 40, 60]
    change = [rate + 1 for rate in parent]  # wins every pair, by noise
    assert drive(tool, monkeypatch, parent, change)[0] == 2


def test_no_gain_runs_are_read_against_the_benchmarks_bound(
    tool, monkeypatch, capsys
):
    """The line a no-gain PR quotes; exit codes stay the gain rule's."""
    assert tool.bound() == 0.25  # BENCHMARK.json, executions_per_s
    steady = [50, 51, 49, 50, 52, 50, 49, 51, 50, 50]

    def verdict(parent, change):
        status, _ = drive(tool, monkeypatch, parent, change)
        return status, capsys.readouterr().out.splitlines()[-1]

    status, last = verdict(steady, [rate * 0.98 for rate in steady])
    assert status == 2
    assert "median ratio 0.980 against a floor of 0.75" in last
    assert last.endswith("quartile ranges overlap -> within bound")
    # Clearly slower, yet inside the bound: apart, and still no regression.
    status, last = verdict(steady, [rate * 0.9 for rate in steady])
    assert status == 2 and last.endswith("quartile ranges apart -> within bound")
    status, last = verdict(steady, [rate * 0.7 for rate in steady])
    assert status == 2 and last.endswith("-> regression")
    # Runs spread wider than the bound cannot show "no regression" ...
    noisy = [40, 60, 40, 60, 40, 60, 40, 60, 40, 60]
    status, last = verdict(noisy, [rate + 1 for rate in noisy])
    assert status == 2 and last.endswith("overlap -> unresolved")
    # ... unless every change run beat every parent run.
    status, last = verdict(noisy, [rate * 2 for rate in noisy])
    assert last.endswith("-> within bound")
    status, last = verdict(steady, [rate * 1.5 for rate in steady])
    assert status == 0 and last.endswith("apart -> within bound")


def test_differing_bits_or_failures_exit_one(tool, monkeypatch):
    parent, change = [50.0] * 10, [75.0] * 10
    assert drive(tool, monkeypatch, parent, change, {"bits": 101.0})[0] == 1
    assert drive(tool, monkeypatch, parent, change, {"failed": 1})[0] == 1


@pytest.mark.parametrize("flag", ["--metric", "--seconds"])
def test_metric_and_run_length_are_not_the_callers_to_choose(tool, flag):
    # A lower-is-better metric would read a regression as GAIN, and a claim
    # is only comparable at the benchmark's own run length.
    with pytest.raises(SystemExit):
        tool.main(["--parent", "p", "--change", "c", "--workload", "w",
                   "--seeds", "1", flag, "1"])
