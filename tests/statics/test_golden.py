"""Golden reports and the one-parse-per-file budget.

The ``render_json`` reports under ``golden/`` — every finding, every
field — must be reproduced byte for byte.

The parse budget pins the one front end: one ``ast.parse`` per
scanned file for a whole lint run, and none for a file the pass does
not scan.
"""

import ast
import pathlib

import pytest

from repro.statics.report import render_json
from repro.statics.runner import (
    CLOCK_MODULES,
    PROTOCOL_PACKAGES,
    collect_findings,
    lint_tree,
)

HERE = pathlib.Path(__file__).parent
REPO = HERE.parent.parent
PACKAGE_ROOT = REPO / "src" / "repro"

CASES = {
    "repro": PACKAGE_ROOT,
    "tree": HERE / "fixtures" / "tree",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical_to_the_recorded_one(name):
    report = render_json(lint_tree(CASES[name])) + "\n"
    assert report == (HERE / "golden" / f"{name}.json").read_text()


def scanned_files(root):
    """Every file under ``PROTOCOL_PACKAGES`` but the clock modules."""
    files = set()
    for package in PROTOCOL_PACKAGES:
        files.update((root / package).rglob("*.py"))
    files -= {root / module for module in CLOCK_MODULES}
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
    # The scope tuple did not silently empty or lose a member.
    for package in PROTOCOL_PACKAGES:
        assert str(PACKAGE_ROOT / package / "__init__.py") in parsed

