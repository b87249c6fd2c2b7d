"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestTable1:
    def test_default(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "k = 2" in out
        assert "simul" in out

    def test_custom_k(self, capsys):
        _, out = run_cli(capsys, "table1", "--k", "3", "--rounds", "10")
        assert "k = 3" in out
        assert out.count("\n") >= 12


class TestRunBA:
    @pytest.mark.parametrize(
        "adversary",
        ["none", "silent", "garbage", "equivocator", "splitter",
         "malformed", "collusion"],
    )
    def test_every_adversary_choice(self, capsys, adversary):
        code, out = run_cli(
            capsys, "run-ba", "--t", "1", "--adversary", adversary
        )
        assert code == 0
        assert "decisions:" in out
        assert "rounds:" in out

    @pytest.mark.parametrize(
        "adversary,decisions,bits",
        [
            ("none", "{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 48370),
            ("silent", "{3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 26684),
            ("garbage", "{3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 26684),
            ("equivocator", "{3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 26684),
            ("splitter", "{3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 36946),
            ("malformed", "{3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 26684),
            ("collusion", "{3: 1, 4: 1, 5: 1, 6: 1, 7: 1}", 38542),
        ],
    )
    def test_output_pinned_for_every_adversary(
        self, capsys, adversary, decisions, bits
    ):
        """The whole report, byte for byte: the gallery table the CLI
        reads is shared with the sweeps, so a strategy's construction
        cannot drift between the two."""
        code, out = run_cli(capsys, "run-ba", "--adversary", adversary)
        assert code == 0
        assert out == (
            "n = 7, t = 2, variant = compact (Corollary 10), "
            f"adversary = {adversary} (faulty = [1, 2])\n"
            f"decisions: {decisions}\n"
            "rounds: 5\n"
            f"message bits: {bits}\n"
        )

    def test_explicit_k(self, capsys):
        _, out = run_cli(capsys, "run-ba", "--t", "1", "--k", "1")
        assert "message bits:" in out

    def test_explicit_epsilon(self, capsys):
        _, out = run_cli(capsys, "run-ba", "--t", "1", "--epsilon", "0.5")
        assert "rounds: 2" in out  # k = 4 covers t + 1 = 2 in one block

    def test_custom_n(self, capsys):
        _, out = run_cli(capsys, "run-ba", "--t", "1", "--n", "5")
        assert "n = 5" in out

    def test_authenticated_variant(self, capsys):
        _, out = run_cli(
            capsys, "run-ba", "--t", "2", "--authenticated"
        )
        assert "authenticated" in out
        assert "rounds: 3" in out  # t + 1 exactly


class TestCompare:
    def test_analytic_only(self, capsys):
        _, out = run_cli(capsys, "compare", "--t", "2")
        assert "Srikanth-Toueg" in out
        assert "measured" not in out

    def test_with_measured(self, capsys):
        _, out = run_cli(capsys, "compare", "--t", "1", "--measured")
        assert "measured under equivocating faults" in out


class TestOtherCommands:
    def test_tradeoff(self, capsys):
        _, out = run_cli(capsys, "tradeoff", "--t", "3")
        assert "message_exponent" in out

    def test_crossover(self, capsys):
        _, out = run_cli(capsys, "crossover", "--max-t", "5")
        assert "Figure R1" in out

    def test_avalanche(self, capsys):
        _, out = run_cli(capsys, "avalanche", "--t", "1")
        assert "decision rounds:" in out

    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestConfigurationErrorsFailClosed:
    """A configuration no protocol accepts is a usage error at the CLI
    boundary — ``error: <message>`` and exit code 2 from ``main()``,
    for every subcommand alike — never a traceback."""

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (("run-ba", "--t", "1", "--n", "3"), "n >= 3t+1"),
            (("run-ba", "--t", "1", "--k", "0"), "k must be >= 1"),
            (("run-ba", "--t", "1", "--epsilon", "0"), "epsilon"),
            (("table1", "--k", "0"), "k must be >= 1"),
            (("tradeoff", "--t", "-1"), "must be >= 1"),
            (("fuzz", "--cases", "1", "--n", "3", "--t", "1"), "n >= 3t+1"),
            (("run-ba", "--t", "-1"), "n must be positive"),
            (("run-ba", "--t", "2", "--n", "2"), "t must be smaller than n"),
            (("avalanche", "--t", "-1"), "n must be positive"),
            (("fuzz", "--cases", "1", "--t", "-1"), "t must be non-negative"),
        ],
    )
    def test_error_line_and_exit_2(self, capsys, argv, fragment):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1
        assert fragment in out

    def test_replay_of_an_unregistered_protocol(self, capsys, tmp_path):
        import pathlib

        corpus = pathlib.Path(__file__).parent / "fuzz" / "corpus"
        source = sorted(corpus.glob("avalanche-*.json"))[0]
        case = tmp_path / source.name
        case.write_text(
            source.read_text().replace('"avalanche"', '"retired-protocol"')
        )
        code, out = run_cli(capsys, "fuzz", "--replay", str(case))
        assert code == 2
        assert out.startswith("error: ")
        assert "unknown fuzz protocol 'retired-protocol'" in out


class TestUsageErrors:
    """A flag that needs a partner flag is a usage error: exit code 2
    and one ``error:`` line naming both, before anything runs."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("run-ba", "--t", "1", "--events-cap", "2000"),
             "--events-cap requires --events"),
            (("fuzz", "--cases", "1", "--events-cap", "2000"),
             "--events-cap requires --events"),
        ],
        ids=["run-ba-events-cap", "fuzz-events-cap"],
    )
    def test_exit_2_with_message(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("fuzz", "--replay", "tests/fuzz/corpus", "--check-closedness"),
            ("fuzz", "--replay", "tests/fuzz/corpus", "--certificates", "x"),
        ],
        ids=["fuzz-check-closedness", "fuzz-certificates"],
    )
    def test_retired_closedness_flags_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_retired_lint_command_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestClosedPipe:
    def test_reader_closing_the_pipe_is_not_a_traceback(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "table1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        process.stdout.close()  # `| head` gone before the first write
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 1
        assert stderr == b""


class TestFuzz:
    def test_small_campaign_clean(self, capsys):
        code, out = run_cli(
            capsys, "fuzz", "--seed", "7", "--cases", "4",
            "--protocol", "avalanche",
        )
        assert code == 0
        assert "all oracles passed" in out

    def test_json_format_is_machine_readable(self, capsys):
        import json

        code, out = run_cli(
            capsys, "fuzz", "--seed", "7", "--cases", "4",
            "--protocol", "avalanche", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 7
        assert report["executions"] == 4
        assert report["failures"] == []

    def test_replay_corpus_directory(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent / "fuzz" / "corpus"
        code, out = run_cli(capsys, "fuzz", "--replay", str(corpus))
        assert code == 0
        assert "0 still failing" in out

    def test_replay_single_file(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent / "fuzz" / "corpus"
        case_file = sorted(corpus.glob("*.json"))[0]
        code, out = run_cli(capsys, "fuzz", "--replay", str(case_file))
        assert code == 0
        assert "ok" in out

    def test_replay_missing_path_exits_2(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "fuzz", "--replay", str(tmp_path / "nope")
        )
        assert code == 2

    def test_unknown_protocol_exits_2(self, capsys):
        code, out = run_cli(
            capsys, "fuzz", "--seed", "0", "--cases", "1",
            "--protocol", "no-such-protocol",
        )
        assert code == 2
        assert "unknown fuzz protocol" in out
