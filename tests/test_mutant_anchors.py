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


#: What a tier-1 run prints when a test's own alarm ends it (the
#: ``time_bound`` guard of tests/compact/test_authenticated_variant.py):
#: progress dots, then faulthandler's stack, most recent call first,
#: and no pytest marker.  Captured from a stand-in test under that
#: guard, its walk a ``sleep`` loop; paths as in a mutant's temp copy.
ALARM_OUTPUT = """\
........................................................................ [ 31%]
...........................
Stack (most recent call first):
  File "/tmp/mutant-3k2j9x/repo/src/walker/__init__.py", line 6 in walk
  File "/tmp/mutant-3k2j9x/repo/tests/compact/test_authenticated_variant.py", line 25 in test_deep_core_rejected_before_anything_walks_it
  File "/usr/lib/python3.11/site-packages/_pytest/python.py", line 166 in pytest_pyfunc_call
  File "/usr/lib/python3.11/site-packages/pluggy/_callers.py", line 121 in _multicall
  File "/usr/lib/python3.11/site-packages/pluggy/_manager.py", line 120 in _hookexec
  File "/usr/lib/python3.11/site-packages/pluggy/_hooks.py", line 512 in __call__
  File "/usr/lib/python3.11/site-packages/_pytest/python.py", line 1720 in runtest
  File "/usr/lib/python3.11/site-packages/_pytest/runner.py", line 179 in pytest_runtest_call
  File "/usr/lib/python3.11/site-packages/pluggy/_callers.py", line 121 in _multicall
  File "/usr/lib/python3.11/site-packages/pluggy/_manager.py", line 120 in _hookexec
  File "/usr/lib/python3.11/site-packages/pluggy/_hooks.py", line 512 in __call__
  File "/usr/lib/python3.11/site-packages/_pytest/runner.py", line 245 in <lambda>
  File "/usr/lib/python3.11/site-packages/_pytest/runner.py", line 353 in from_call
  File "/usr/lib/python3.11/site-packages/_pytest/runner.py", line 244 in call_and_report
  File "/usr/lib/python3.11/site-packages/_pytest/runner.py", line 137 in runtestprotocol
  File "/usr/lib/python3.11/site-packages/_pytest/runner.py", line 118 in pytest_runtest_protocol
  File "/usr/lib/python3.11/site-packages/pluggy/_callers.py", line 121 in _multicall
  File "/usr/lib/python3.11/site-packages/pluggy/_manager.py", line 120 in _hookexec
  File "/usr/lib/python3.11/site-packages/pluggy/_hooks.py", line 512 in __call__
  File "/usr/lib/python3.11/site-packages/_pytest/main.py", line 396 in pytest_runtestloop
  File "/usr/lib/python3.11/site-packages/pluggy/_callers.py", line 121 in _multicall
  File "/usr/lib/python3.11/site-packages/pluggy/_manager.py", line 120 in _hookexec
  File "/usr/lib/python3.11/site-packages/pluggy/_hooks.py", line 512 in __call__
  File "/usr/lib/python3.11/site-packages/_pytest/main.py", line 372 in _main
  File "/usr/lib/python3.11/site-packages/_pytest/main.py", line 318 in wrap_session
  File "/usr/lib/python3.11/site-packages/_pytest/main.py", line 365 in pytest_cmdline_main
  File "/usr/lib/python3.11/site-packages/pluggy/_callers.py", line 121 in _multicall
  File "/usr/lib/python3.11/site-packages/pluggy/_manager.py", line 120 in _hookexec
  File "/usr/lib/python3.11/site-packages/pluggy/_hooks.py", line 512 in __call__
  File "/usr/lib/python3.11/site-packages/_pytest/config/__init__.py", line 199 in main
  File "/usr/lib/python3.11/site-packages/_pytest/config/__init__.py", line 223 in console_main
  File "/usr/lib/python3.11/site-packages/pytest/__main__.py", line 9 in <module>
  File "<frozen runpy>", line 88 in _run_code
  File "<frozen runpy>", line 198 in _run_module_as_main
"""


def test_reason_names_the_test_an_alarm_ended():
    assert mutants._reason(ALARM_OUTPUT) == (
        'File "/tmp/mutant-3k2j9x/repo/tests/compact/'
        'test_authenticated_variant.py", line 25 in '
        "test_deep_core_rejected_before_anything_walks_it"
    )


def test_reason_prefers_a_pytest_marker():
    failed = "FAILED tests/compact/test_x.py::test_y - AssertionError"
    assert mutants._reason(failed + "\n" + ALARM_OUTPUT) == failed
