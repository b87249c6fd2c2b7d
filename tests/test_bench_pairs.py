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


def line(rate, bits=100.0, failed=0, cpu_ms=2.0, rss_mb=100.0, setup_s=0.5):
    """One run's last stdout line: all five end-to-end metrics."""
    return {
        "failed": failed,
        "metrics": {
            "executions_per_s": {"value": rate},
            "cpu_ms_per_execution": {"value": cpu_ms},
            "bits_per_execution": {"value": bits},
            "peak_rss_mb": {"value": rss_mb},
            "setup_s": {"value": setup_s},
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
    steady = [50, 51, 49, 50, 52, 50, 49, 51, 50, 50]

    def verdict(parent, change):
        status, _ = drive(tool, monkeypatch, parent, change)
        (last,) = (
            text for text in capsys.readouterr().out.splitlines()
            if text.startswith("executions_per_s bound 0.25: ")
        )
        return status, last

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


def test_every_other_metric_is_read_against_its_own_bound(
    tool, monkeypatch, capsys
):
    """Direction and bound come from BENCHMARK.json; lower is better for
    the three that ride along, and a regression on any of them exits 1."""
    assert [
        (metric["name"], metric["better"], metric["bound"])
        for metric in tool.declared()
    ] == [
        ("executions_per_s", "higher", 0.25),
        ("cpu_ms_per_execution", "lower", 0.25),
        ("peak_rss_mb", "lower", 0.1),
        ("setup_s", "lower", 0.25),
    ]
    parent = [50, 51, 49, 50, 52, 50, 49, 51, 50, 50]
    gain = [rate * 1.5 for rate in parent]

    def verdicts(**change_line):
        status, _ = drive(tool, monkeypatch, parent, gain, change_line)
        lines = capsys.readouterr().out.splitlines()
        return status, {
            text.split(" bound ")[0]: text
            for text in lines if " bound " in text
        }, lines[-1]

    status, by_metric, _ = verdicts()
    assert status == 0
    assert list(by_metric) == [
        "executions_per_s", "cpu_ms_per_execution", "peak_rss_mb", "setup_s",
    ]
    assert by_metric["peak_rss_mb"].endswith(
        "median ratio 1.000 against a ceiling of 1.1, quartile ranges "
        "overlap -> within bound"
    )
    assert "parent 2 [2..2]  change 2 [2..2]" in by_metric[
        "cpu_ms_per_execution"
    ]
    # Worse, inside the bound: reported, and the gain still stands.
    status, by_metric, _ = verdicts(rss_mb=109.0)
    assert status == 0
    assert by_metric["peak_rss_mb"].endswith("ranges apart -> within bound")
    # Beyond it: exit 1 although the claimed metric gained.
    status, by_metric, last = verdicts(rss_mb=111.0)
    assert status == 1
    assert by_metric["peak_rss_mb"].endswith("-> regression")
    assert by_metric["setup_s"].endswith("-> within bound")
    assert last == "beyond the bound on compact-sweep: peak_rss_mb"
    status, by_metric, last = verdicts(cpu_ms=2.6, setup_s=0.7)
    assert status == 1
    assert last == (
        "beyond the bound on compact-sweep: cpu_ms_per_execution, setup_s"
    )
    # Lower is better: a fall is never a regression, however large.
    status, by_metric, _ = verdicts(cpu_ms=0.5, rss_mb=50.0, setup_s=0.1)
    assert status == 0
    assert all(
        text.endswith("apart -> within bound") for text in by_metric.values()
    )


def test_runs_too_noisy_for_a_lower_is_better_bound_are_unresolved(
    tool, monkeypatch, capsys
):
    parent = [50, 51, 49, 50, 52, 50, 49, 51, 50, 50]
    noisy = iter([80.0, 120.0] * 10)  # both sides, medians equal

    def fake_run(checkout, workload, seed):
        return line(parent[seed - 1], rss_mb=next(noisy))

    monkeypatch.setattr(tool, "run", fake_run)
    status = tool.main([
        "--parent", "parent", "--change", "change",
        "--workload", "pool-sweep", "--seeds", "1-10",
    ])
    assert status == 2  # no gain, and nothing provably beyond its bound
    (rss,) = (
        text for text in capsys.readouterr().out.splitlines()
        if text.startswith("peak_rss_mb bound 0.1: ")
    )
    assert rss.endswith("quartile ranges overlap -> unresolved")


def test_differing_bits_or_failures_exit_one(tool, monkeypatch):
    parent, change = [50.0] * 10, [75.0] * 10
    assert drive(tool, monkeypatch, parent, change, {"bits": 101.0})[0] == 1
    assert drive(tool, monkeypatch, parent, change, {"failed": 1})[0] == 1


def test_workload_lists_and_all(tool):
    every = ["compact-sweep", "eig-sweep", "fuzz-campaign", "pool-sweep",
             "observed-sweep", "cli-cold"]
    assert tool.workloads("pool-sweep") == ["pool-sweep"]
    assert tool.workloads("all") == every
    assert tool.workloads("pool-sweep,all") == ["pool-sweep"] + [
        name for name in every if name != "pool-sweep"
    ]
    assert tool.workloads("cli-cold,eig-sweep") == ["cli-cold", "eig-sweep"]


def test_one_block_per_workload_and_a_claim_only_on_the_first(
    tool, monkeypatch, capsys
):
    """The rows a gain PR quotes for the workloads that must not move."""
    steady = [50, 51, 49, 50, 52, 50, 49, 51, 50, 50]
    # Faster on the claimed workload, flat elsewhere.
    factor = {"pool-sweep": 1.5, "compact-sweep": 1.0, "eig-sweep": 1.0}

    def fake_run(checkout, workload, seed):
        rate = steady[seed - 1]
        return line(rate * factor[workload] if checkout.name == "change"
                    else rate)

    monkeypatch.setattr(tool, "run", fake_run)
    argv = ["--parent", "parent", "--change", "change", "--seeds", "1-10",
            "--workload", "pool-sweep,compact-sweep,eig-sweep"]
    assert tool.main(argv) == 0
    out = capsys.readouterr().out
    assert [text for text in out.splitlines() if text.startswith("== ")] == [
        "== pool-sweep", "== compact-sweep", "== eig-sweep",
    ]
    assert out.count("-> GAIN") == 1 and "NO GAIN" not in out
    assert out.count("executions_per_s bound 0.25: ") == 3
    # A flat first workload is a claim not met, whatever follows it ...
    assert tool.main(argv[:-1] + ["compact-sweep,pool-sweep"]) == 2
    capsys.readouterr()
    # ... and a throughput regression on a later one is exit 1, not "no gain".
    factor["eig-sweep"] = 0.7
    assert tool.main(argv) == 1
    assert "beyond the bound on eig-sweep: executions_per_s" in (
        capsys.readouterr().out
    )


def drive_setup_claim(tool, monkeypatch, parent, change, **change_line):
    """Claim ``setup_s`` (lower is better) on flat throughput."""

    def fake_run(checkout, workload, seed):
        if checkout.name == "parent":
            return line(50.0, setup_s=parent[seed - 1])
        return line(50.0, setup_s=change[seed - 1], **change_line)

    monkeypatch.setattr(tool, "run", fake_run)
    return tool.main([
        "--parent", "parent", "--change", "change", "--claim", "setup_s",
        "--workload", "eig-sweep", "--seeds", f"1-{len(parent)}",
    ])


SETUP = [0.33, 0.34, 0.32, 0.33, 0.35, 0.33, 0.32, 0.34, 0.33, 0.33]


def test_a_lower_is_better_claim_that_rose_is_no_gain(
    tool, monkeypatch, capsys
):
    status = drive_setup_claim(
        tool, monkeypatch, SETUP, [value * 1.2 for value in SETUP]
    )
    assert status == 2
    out = capsys.readouterr().out
    assert "seed 1 (parent first): parent 0.33  change 0.396" in out
    assert "setup_s on eig-sweep: change wins 0/10 (loses 10)" in out
    assert "-> NO GAIN" in out
    # Worse by less than the bound: the claim fails, nothing regressed.
    assert "setup_s bound 0.25: " in out and "-> regression" not in out


def test_a_lower_is_better_claim_that_fell_is_a_gain(
    tool, monkeypatch, capsys
):
    change = [value * 0.6 for value in SETUP]
    change[3] = 0.40  # one pair lost: nine of ten still wins
    assert drive_setup_claim(tool, monkeypatch, SETUP, change) == 0
    out = capsys.readouterr().out
    assert "setup_s on eig-sweep: change wins 9/10 (loses 1)" in out
    assert "-> GAIN" in out and "NO GAIN" not in out
    # A fall inside the parent's own spread is not one.
    noisy = [0.2, 0.4] * 5
    assert drive_setup_claim(
        tool, monkeypatch, noisy, [value - 0.01 for value in noisy]
    ) == 2
    assert "change wins 10/10 (loses 0)" in capsys.readouterr().out


def test_a_lower_is_better_claim_still_gates_the_other_metrics(
    tool, monkeypatch, capsys
):
    change = [value * 0.6 for value in SETUP]
    status = drive_setup_claim(
        tool, monkeypatch, SETUP, change, rss_mb=111.0
    )
    assert status == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "beyond the bound on eig-sweep: peak_rss_mb"
    )
    # Throughput is one more bounded metric once it is not the claim.
    def slow(checkout, workload, seed):
        if checkout.name == "parent":
            return line(50.0, setup_s=SETUP[seed - 1])
        return line(30.0, setup_s=change[seed - 1])

    monkeypatch.setattr(tool, "run", slow)
    assert tool.main([
        "--parent", "parent", "--change", "change", "--claim", "setup_s",
        "--workload", "eig-sweep", "--seeds", "1-10",
    ]) == 1
    out = capsys.readouterr().out
    assert "-> GAIN" in out
    assert out.splitlines()[-1] == (
        "beyond the bound on eig-sweep: executions_per_s"
    )


@pytest.mark.parametrize("name", ["bits_per_execution", "wall_s"])
def test_only_a_bounded_end_to_end_metric_can_be_claimed(tool, name):
    with pytest.raises(SystemExit):
        tool.main(["--parent", "p", "--change", "c", "--workload", "w",
                   "--seeds", "1", "--claim", name])


@pytest.mark.parametrize("flag", ["--metric", "--seconds"])
def test_metric_and_run_length_are_not_the_callers_to_choose(tool, flag):
    # The claimed metric is named by --claim, whose direction comes from
    # BENCHMARK.json, and a claim is only comparable at the benchmark's own
    # run length.
    with pytest.raises(SystemExit):
        tool.main(["--parent", "p", "--change", "c", "--workload", "w",
                   "--seeds", "1", flag, "1"])
