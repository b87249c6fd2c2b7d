"""Corpus-wide lockstep/async differential gate.

Every committed corpus case replays under the asynchronous reference
(``tests/runtime/reference_async.py``) and must agree with the lockstep
replay on *everything* — oracle verdicts, decisions, and the full
checkpoint pickle of the result.  A disagreement here means either a
reference bug or a protocol that silently stopped being
communication-closed, and both are hard failures.  The lockstep engine
is closed by construction; the recorded trace of both replays must
say so too (:func:`repro.obs.trace.check_closedness`).
"""

import contextlib
import dataclasses
import pathlib
import pickle

import pytest

from repro.fuzz.campaign import replay_case
from repro.fuzz.case import load_corpus
from repro.obs.core import Observer, observing
from repro.obs.events import EventLog
from repro.obs.trace import check_closedness

from tests.runtime.reference_async import async_schedule, schedule_for

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

_ENTRIES = load_corpus(CORPUS_DIR)

#: One cheap spec and one that stresses delay spread; the full axis is
#: hypothesis-explored in tests/runtime/test_scheduler_equivalence.py.
_BACKENDS = ("async", "async:6:13")


def _checkpoint_pickle(result):
    stripped = dataclasses.replace(result, processes={})
    return pickle.dumps(pickle.loads(pickle.dumps(stripped)))


@pytest.mark.parametrize(
    "path,case", _ENTRIES, ids=[path.name for path, _ in _ENTRIES]
)
@pytest.mark.parametrize("backend", _BACKENDS)
def test_corpus_case_agrees_across_backends(path, case, backend):
    reference = replay_case(case)
    with schedule_for(backend):
        outcome = replay_case(case)
    assert outcome.violations == reference.violations, (
        f"{path.name}: verdicts diverged under {backend}: "
        f"{list(outcome.violations)} vs {list(reference.violations)}"
    )
    assert outcome.result.decisions == reference.result.decisions, (
        f"{path.name}: decisions diverged under {backend}"
    )
    assert _checkpoint_pickle(outcome.result) == _checkpoint_pickle(
        reference.result
    ), f"{path.name}: results not pickle-identical under {backend}"


#: Each case once under the async reference (bare case id) and once
#: as a plain lockstep replay (``lockstep-`` id).
_CLOSEDNESS_RUNS = [
    pytest.param(path, case, True, id=path.name) for path, case in _ENTRIES
] + [
    pytest.param(path, case, False, id=f"lockstep-{path.name}")
    for path, case in _ENTRIES
]


@pytest.mark.parametrize("path,case,asynchronous", _CLOSEDNESS_RUNS)
def test_corpus_case_closed_under_async_delivery(path, case, asynchronous):
    """A replay's trace passes the dynamic closedness checker, and it is
    a real trace: at least one processor sent something."""
    schedule = (
        async_schedule(3, 1) if asynchronous else contextlib.nullcontext()
    )
    log = EventLog()
    with schedule, observing(Observer(events=log, spans=False)):
        replay_case(case)
    assert any(record["kind"] == "send" for record in log.records), (
        f"{path.name}: no send record"
    )
    problems = check_closedness(log.records)
    assert problems == [], f"{path.name}: {problems}"
