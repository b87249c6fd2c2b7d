"""Every mutant of ``tools/mutants.py`` still plants its bug.

A mutant is a find string and its replacement; if code motion makes
the find string vanish or repeat, the mutant silently stops testing
anything.  Each must occur exactly once in its file.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "mutants", REPO / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_ids_are_unique():
    ids = [mutant.id for mutant in mutants.MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_find_string_occurs_exactly_once(mutant):
    assert mutant.find != mutant.replace
    assert (REPO / mutant.path).read_text().count(mutant.find) == 1
