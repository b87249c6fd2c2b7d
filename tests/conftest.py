"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
import pickle
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.analysis.sweeps import standard_adversary_makers
from repro.obs.events import EventLog
from repro.types import BOTTOM, ProcessId, SystemConfig, Value

from tests.arrays.builders import map_leaves
from tests.runtime.reference_async import schedule_for


#: The ``schedule`` fixture's default parameters.
SCHEDULES = ("lockstep", "async:3:7")


@pytest.fixture(params=SCHEDULES)
def schedule(request):
    """Run the test under the lockstep engine or the asynchronous
    reference: ``nullcontext()`` or ``async_schedule(3, 7)``.

    A closed protocol cannot tell them apart.  Parametrise it
    indirectly (``indirect=True``) with other ``schedule_for`` specs,
    or to place its id among a test's other parameters.
    """
    with schedule_for(request.param) as networks:
        yield networks


@pytest.fixture
def new_log(tmp_path):
    """A factory of event logs: each call opens the next
    ``events-N.jsonl`` under ``tmp_path``.  Read one back after
    ``close()`` with ``read_log(log.path)``, as ``repro status`` does.
    """
    numbers = itertools.count(1)
    return lambda: EventLog(tmp_path / f"events-{next(numbers)}.jsonl")


@pytest.fixture
def config4() -> SystemConfig:
    """The smallest Byzantine-capable system: n = 4, t = 1."""
    return SystemConfig(n=4, t=1)


@pytest.fixture
def config7() -> SystemConfig:
    """n = 7, t = 2 — the workhorse size for adversarial sweeps."""
    return SystemConfig(n=7, t=2)


@pytest.fixture
def config9() -> SystemConfig:
    """n = 9, t = 2 — satisfies the fast-variant bound n >= 4t + 1."""
    return SystemConfig(n=9, t=2)


def binary_inputs(config: SystemConfig, pattern: int = 0) -> Dict[ProcessId, int]:
    """Deterministic mixed binary inputs; ``pattern`` varies the mix."""
    return {
        process_id: (process_id + pattern) % 2
        for process_id in config.process_ids
    }


def unanimous_inputs(config: SystemConfig, value: Value) -> Dict[ProcessId, Value]:
    return {process_id: value for process_id in config.process_ids}


def byzantine_adversaries(faulty: Sequence[ProcessId], values=(0, 1)) -> List:
    """One instance of every Byzantine strategy, for sweep tests."""
    return [
        maker(faulty) for _name, maker in standard_adversary_makers(values)
    ]


def assert_agreement_and_validity(result, inputs: Dict[ProcessId, Value]) -> None:
    """The Section 2 conditions, as a test helper."""
    decisions = [
        result.decisions[process_id] for process_id in sorted(result.processes)
    ]
    assert all(
        decision is not BOTTOM for decision in decisions
    ), f"undecided correct processors: {result.decisions}"
    assert len(set(decisions)) == 1, f"disagreement: {result.decisions}"
    correct_inputs = {inputs[process_id] for process_id in result.processes}
    if len(correct_inputs) == 1:
        assert decisions[0] == next(iter(correct_inputs)), (
            f"validity violated: unanimous input {correct_inputs} but "
            f"decision {decisions[0]!r}"
        )


def faulty_subsets(config: SystemConfig) -> List[Tuple[ProcessId, ...]]:
    """A few representative faulty sets of maximal size ``t``."""
    n, t = config.n, config.t
    subsets = [tuple(range(1, t + 1)), tuple(range(n - t + 1, n + 1))]
    middle = tuple(range(2, 2 + t))
    if middle not in subsets and len(middle) == t:
        subsets.append(middle)
    return subsets


def nested_tuple(width: int, levels: int = 5000, leaf: Value = 0):
    """``leaf`` wrapped ``levels`` deep in ``width``-tuples.

    The default depth is far past the interpreter's recursion limit:
    the Byzantine payload every recursive walker used to crash on.
    Levels share one child object, so building it is O(levels).
    """
    array = leaf
    for _ in range(levels):
        array = (array,) * width
    return array


def to_plain(value):
    """``value`` rebuilt from builtin tuples (drops interning).

    The plain-tuple walkers are the reference for every flat-table
    pass: hand them ``to_plain(node)`` and compare with the result on
    ``node``.
    """
    return map_leaves(lambda leaf: leaf, value)


def typed(value):
    """What byte-identity means for one result value."""
    return (type(value), repr(value), pickle.dumps(value))


def canonical_bytes(result) -> bytes:
    """The checkpoint pickle of ``result``, topology-normalised.

    Live processes hold closures (unpicklable) and are not part of any
    cross-implementation contract; a loads/dumps round trip normalises
    object-sharing topology the same way the parallel executor's
    portable path does.
    """
    stripped = dataclasses.replace(result, processes={})
    return pickle.dumps(pickle.loads(pickle.dumps(stripped)))
