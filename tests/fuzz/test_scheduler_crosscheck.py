"""Corpus-wide lockstep/async differential gate.

Mirror of the static↔dynamic agreement test: every committed corpus
case replays under the asynchronous reference
(``tests/runtime/reference_async.py``) and must agree with the lockstep
replay on *everything* — oracle verdicts, decisions, and the full
checkpoint pickle of the result.  A disagreement here means either a
reference bug or a protocol that silently stopped being
communication-closed, and both are hard failures.
"""

import dataclasses
import pathlib
import pickle

import pytest

from repro.fuzz.campaign import replay_case
from repro.fuzz.case import load_corpus

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


@pytest.mark.parametrize(
    "path,case", _ENTRIES, ids=[path.name for path, _ in _ENTRIES]
)
def test_corpus_case_closed_under_async_delivery(path, case):
    """Async replay traces must pass the dynamic closedness checker —
    the same cross-check CI applies with --check-closedness."""
    import repro.obs.core as _obs
    from repro.obs.events import EventLog
    from repro.obs.trace import check_closedness

    log = EventLog()
    with async_schedule(3, 1), _obs.observing(
        _obs.Observer(events=log, spans=False)
    ):
        replay_case(case)
    problems = check_closedness(log.records)
    assert problems == [], f"{path.name}: {problems}"
