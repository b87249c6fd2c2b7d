"""Integration: ``repro lint`` on the real tree and on the fixtures.

This is the acceptance contract of the subsystem: exit 0 with zero
findings on the repository itself, exit 1 on the planted violations,
exit 2 on a bad root or a file that does not parse, and
machine-readable JSON.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.statics.runner import lint_tree

REPO = pathlib.Path(__file__).parent.parent.parent
PACKAGE_ROOT = REPO / "src" / "repro"
FIXTURE_TREE = pathlib.Path(__file__).parent / "fixtures" / "tree"


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestRealTree:
    def test_exits_zero_and_clean(self, capsys):
        code, out = run_lint(capsys, "--root", str(PACKAGE_ROOT))
        assert code == 0, out
        assert out.strip() == "clean"

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
        assert set(report) == {"version", "findings"}
        assert report["version"] == 3
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
            assert finding["rule"].rstrip("0123456789") == "DET"
            assert finding["line"] >= 1
        rules = {finding["rule"] for finding in report["findings"]}
        assert {"DET001", "DET004", "DET005"} <= rules


class TestErrorHandling:
    def test_bad_root_exits_two(self, capsys):
        code, out = run_lint(capsys, "--root", "/nonexistent/path")
        assert code == 2
        assert "error" in out

    @pytest.mark.parametrize(
        "subpath",
        [
            "obs/broken.py",
            "agreement/broken.py",
        ],
    )
    def test_unparsable_file_exits_two_for_every_pass(
        self, capsys, tmp_path, subpath
    ):
        # A scanned file that does not parse fails the whole run, in
        # every format, instead of raising out of the pass.
        broken = tmp_path / "repro" / subpath
        broken.parent.mkdir(parents=True)
        broken.write_text("def f(:\n    return 1\n")
        for extra in ([], ["--format", "json"], ["--format", "sarif"]):
            code, out = run_lint(
                capsys, "--root", str(tmp_path / "repro"), *extra
            )
            assert code == 2, out
            assert out.startswith(f"error: {broken}: invalid syntax")


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
        result = lint_tree()
        assert [
            finding for finding in result.findings if "/obs/" in finding.path
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
