"""Integration: ``repro lint`` on the real tree and on the fixtures.

This is the acceptance contract of the subsystem: exit 0 with zero
unsuppressed findings on the repository itself, exit 1 on the planted
violations, machine-readable JSON, and a working baseline workflow.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.statics.baseline import Baseline, write_baseline
from repro.statics.runner import lint_tree

REPO = pathlib.Path(__file__).parent.parent.parent
PACKAGE_ROOT = REPO / "src" / "repro"
BASELINE = REPO / "tools" / "lint_baseline.json"
FIXTURE_TREE = pathlib.Path(__file__).parent / "fixtures" / "tree"


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestRealTree:
    def test_exits_zero_with_committed_baseline(self, capsys):
        code, out = run_lint(
            capsys, "--root", str(PACKAGE_ROOT), "--baseline", str(BASELINE)
        )
        assert code == 0, out
        assert "clean" in out

    def test_no_unused_baseline_entries(self):
        result = lint_tree(PACKAGE_ROOT, Baseline.load(BASELINE))
        assert result.unused_suppressions == []

    def test_every_suppression_still_matches_a_real_finding(self):
        # Several findings can share one suppression key (a drain
        # method with multiple flagged writes), so compare key sets,
        # not counts.
        result = lint_tree(PACKAGE_ROOT, Baseline.load(BASELINE))
        suppressed_keys = {f.suppression_key for f in result.suppressed}
        baseline_keys = {
            f"{e['rule']}:{e['path']}:{e['symbol']}"
            for e in json.loads(BASELINE.read_text())["suppressions"]
        }
        assert suppressed_keys == baseline_keys

    def test_arrays_kernel_is_registered(self):
        from repro.statics.runner import PROTOCOL_PACKAGES

        assert "arrays" in PROTOCOL_PACKAGES


class TestFixtureTree:
    def test_exits_nonzero(self, capsys):
        code, out = run_lint(capsys, "--root", str(FIXTURE_TREE))
        assert code == 1
        assert "DET001" in out and "DET004" in out

    def test_json_schema(self, capsys):
        code, out = run_lint(
            capsys, "--root", str(FIXTURE_TREE), "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["version"] == 2
        assert report["stale_suppressions"] == []
        assert report["findings"], "fixture tree must produce findings"
        for finding in report["findings"]:
            assert set(finding) == {
                "rule",
                "path",
                "line",
                "col",
                "symbol",
                "message",
            }
            assert finding["rule"].rstrip("0123456789") in ("DET", "TAINT")
            assert finding["line"] >= 1
        rules = {finding["rule"] for finding in report["findings"]}
        assert {"DET001", "DET004", "DET005"} <= rules

    def test_update_baseline_then_clean(self, capsys, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        code, out = run_lint(
            capsys,
            "--root",
            str(FIXTURE_TREE),
            "--baseline",
            str(baseline_path),
            "--update-baseline",
        )
        assert code == 0  # creates the baseline file
        assert "TODO" in out
        code, out = run_lint(
            capsys, "--root", str(FIXTURE_TREE), "--baseline", str(baseline_path)
        )
        assert code == 0, out
        assert "suppressed by baseline" in out

    def test_suppressed_findings_are_reported_in_json(self, capsys, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, lint_tree(FIXTURE_TREE).findings)
        code, out = run_lint(
            capsys,
            "--root",
            str(FIXTURE_TREE),
            "--baseline",
            str(baseline_path),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["findings"] == []
        assert report["suppressed"]


class TestErrorHandling:
    def test_bad_root_exits_two(self, capsys):
        code, out = run_lint(capsys, "--root", "/nonexistent/path")
        assert code == 2
        assert "error" in out

    @pytest.mark.parametrize(
        "subpath",
        [
            "obs/broken.py",  # determinism only
            "agreement/broken.py",  # every pass, protoflow included
        ],
    )
    def test_unparsable_file_exits_two_for_every_pass(
        self, capsys, tmp_path, subpath
    ):
        # One front end: a file no pass can read fails the whole run
        # the same way, instead of raising out of determinism
        # while protoflow certifies around it.
        broken = tmp_path / "repro" / subpath
        broken.parent.mkdir(parents=True)
        broken.write_text("def f(:\n    return 1\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, [])
        before = baseline.read_text()
        for extra in ([], ["--update-baseline"], ["--format", "json"]):
            code, out = run_lint(
                capsys,
                "--root",
                str(tmp_path / "repro"),
                "--baseline",
                str(baseline),
                *extra,
            )
            assert code == 2, out
            assert out.startswith(f"error: {broken}: invalid syntax")
        assert baseline.read_text() == before

    def test_unknown_rule_in_baseline_warns_but_does_not_fail(
        self, capsys, tmp_path
    ):
        # A stale entry (rule id from another checkout) is skipped
        # with a warning, not a load error — see docs/statics.md.
        bad = tmp_path / "baseline.json"
        bad.write_text(
            json.dumps(
                {
                    "version": 1,
                    "suppressions": [
                        {
                            "rule": "NOPE99",
                            "path": "x.py",
                            "symbol": "f",
                            "justification": "bogus",
                        }
                    ],
                }
            )
        )
        code, out = run_lint(
            capsys, "--root", str(FIXTURE_TREE), "--baseline", str(bad)
        )
        assert code == 1  # the planted findings still fail the run
        assert "stale baseline entry" in out
        assert "unknown rule id 'NOPE99'" in out

    def test_missing_justification_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(
            json.dumps(
                {
                    "version": 1,
                    "suppressions": [
                        {
                            "rule": "DET001",
                            "path": "x.py",
                            "symbol": "f",
                            "justification": "  ",
                        }
                    ],
                }
            )
        )
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(bad)


class TestToolsEntryPoint:
    def test_run_lint_script_on_real_tree(self, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "run_lint", REPO / "tools" / "run_lint.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main([]) == 0
        assert "clean" in capsys.readouterr().out


class TestObservabilityRegistration:
    """repro.obs is inside the protolint perimeter, with its carve-outs."""

    def test_obs_is_a_scanned_package(self):
        from repro.statics.runner import PROTOCOL_PACKAGES

        assert "obs" in PROTOCOL_PACKAGES

    def test_spans_is_the_only_clock_module(self):
        from repro.statics.runner import CLOCK_MODULES

        assert CLOCK_MODULES == ("obs/spans.py",)

    def test_obs_tree_is_lint_clean(self):
        # the spans carve-out must cover everything: no obs finding
        # may need the baseline
        result = lint_tree()
        assert [
            finding
            for finding in result.findings + result.suppressed
            if "/obs/" in finding.path
        ] == []

    def test_clock_import_outside_spans_is_a_finding(self, tmp_path):
        package = tmp_path / "repro" / "obs"
        package.mkdir(parents=True)
        (package / "rogue.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        result = lint_tree(package_root=tmp_path / "repro")
        assert any(
            "time" in finding.message for finding in result.findings
        )
