"""Golden reports and the one-parse-per-file budget.

The three ``render_json`` reports under ``golden/`` — findings *and*
suppressed, every field — must be reproduced byte for byte: the
passes share one project model, and sharing it must not move a single
verdict.

The parse budget pins the one front end: one ``ast.parse`` per
scanned file for a whole lint run, so per-pass parsing cannot creep
back.
"""

import ast
import pathlib

import pytest

from repro.statics.baseline import Baseline
from repro.statics.model import FLOW_PACKAGES, SUPPORT_MODULES
from repro.statics.report import render_json
from repro.statics.runner import PROTOCOL_PACKAGES, collect_findings, lint_tree

HERE = pathlib.Path(__file__).parent
REPO = HERE.parent.parent
PACKAGE_ROOT = REPO / "src" / "repro"
BASELINE = REPO / "tools" / "lint_baseline.json"

CASES = {
    "repro": (PACKAGE_ROOT, BASELINE),
    "tree": (HERE / "fixtures" / "tree", None),
    "flowtree": (HERE / "fixtures" / "flowtree", None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical_to_the_recorded_one(name):
    root, baseline_path = CASES[name]
    baseline = Baseline.load(baseline_path) if baseline_path else None
    report = render_json(lint_tree(root, baseline)) + "\n"
    assert report == (HERE / "golden" / f"{name}.json").read_text()


def scanned_files(root):
    """Every file some pass's scope tuple names, each once."""
    files = set()
    for package in PROTOCOL_PACKAGES + FLOW_PACKAGES:
        files.update((root / package).rglob("*.py"))
    for module in SUPPORT_MODULES:
        if (root / module).is_file():
            files.add(root / module)
    return sorted(map(str, files))


@pytest.fixture
def parsed(monkeypatch):
    """The ``filename`` of every ``ast.parse`` call made while active."""
    calls = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        calls.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return calls


def test_collect_findings_parses_each_scanned_file_once(parsed):
    collect_findings(PACKAGE_ROOT)
    assert sorted(parsed) == scanned_files(PACKAGE_ROOT)
    # The scope tuples did not silently empty or lose a member.
    for package in PROTOCOL_PACKAGES + FLOW_PACKAGES:
        assert str(PACKAGE_ROOT / package / "__init__.py") in parsed

