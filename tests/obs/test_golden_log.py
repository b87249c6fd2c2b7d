"""Golden digests of a traced compact-BA grid's streamed event log.

The digests were recorded at the commit *before* the sink's line
encoders replaced ``json.dumps`` and must never move: every
deterministic line of the streamed log — envelope, field order,
separators, escapes — is part of the on-disk contract, under the
lockstep scheduler and the async one, and a capped log must roll over
at the same records.  Only the wall-clock ``profile`` record is
excluded (it is flagged ``"nondeterministic": true``).
"""

import hashlib
import json

import pytest

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays.store import clear_shared_stores
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate
from repro.obs import EventLog, Observer, log_paths, observing
from repro.obs.events import read_jsonl
from repro.obs.trace import check_closedness
from repro.types import SystemConfig

GOLDEN = {
    "lockstep": (
        14833,
        "91c86149322260b1ec49ca94fe4e6fb1300be7100b77f358751fc759c57bdf63",
    ),
    "async:3:7": (
        14833,
        "7fa28e693ecfc6393f89d4ce8314904f442d5039312ff4e42f1c6a3736843c77",
    ),
}

CAP_BYTES = 400_000
#: ``(first step, deterministic lines)`` of each part of the lockstep
#: log written under ``CAP_BYTES``.
GOLDEN_PARTS = [
    (1, 3164), (3165, 3145), (6310, 3128), (9438, 3105), (12543, 2291),
]


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    # The closing ``counters`` record names kernel and intern counters,
    # so the digest is taken over empty pools.
    clear_shared_stores()
    yield
    clear_shared_stores()


def _write_grid_log(path, scheduler, cap_bytes=None, workers=1):
    config = SystemConfig(n=7, t=2)
    log = EventLog(path, cap_bytes=cap_bytes)
    with observing(Observer(events=log, trace=True)):
        report = sweep(
            compact_ba_factory(config, [0, 1], default=0, k=1),
            config,
            [{p: (p + shift) % 2 for p in config.process_ids}
             for shift in range(2)],
            [(1, 2), (6, 7)],
            standard_adversary_makers(),
            seeds=(1402,),
            predicate=byzantine_agreement_predicate(),
            max_rounds=compact_ba_rounds(config.t, 1) + 1,
            sizer=compact_sizer(config, 2),
            is_null=payload_is_null,
            workers=workers,
            scheduler=scheduler,
            cache=False,
        )
    assert not report.violations
    return report


def _deterministic_lines(path):
    return [
        line for line in path.read_bytes().splitlines(keepends=True)
        if b'"nondeterministic": true' not in line
    ]


@pytest.mark.parametrize("scheduler", sorted(GOLDEN))
def test_deterministic_records_match_the_pinned_digest(scheduler, tmp_path):
    path = tmp_path / "events.jsonl"
    _write_grid_log(path, scheduler)
    lines = _deterministic_lines(path)
    digest = hashlib.sha256(b"".join(lines)).hexdigest()
    assert (len(lines), digest) == GOLDEN[scheduler]
    assert check_closedness([json.loads(line) for line in lines]) == []


def test_capped_log_rolls_over_at_the_pinned_records(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_grid_log(path, "lockstep", cap_bytes=CAP_BYTES)
    parts = []
    lines = []
    for part in log_paths(path):
        assert part.stat().st_size <= CAP_BYTES
        part_lines = _deterministic_lines(part)
        if part_lines:
            parts.append((json.loads(part_lines[0])["step"], len(part_lines)))
            lines.extend(part_lines)
    assert parts == GOLDEN_PARTS
    # rotation moves file boundaries, never bytes
    digest = hashlib.sha256(b"".join(lines)).hexdigest()
    assert (len(lines), digest) == GOLDEN["lockstep"]


def test_pooled_log_is_exactly_the_stdlib_encoding(tmp_path):
    """The sink assembles lines from pre-rendered parts instead of
    calling ``json.dumps``; a pooled log carries the records the serial
    grid does not (``rollup``, ``worker_sample``, ``workers``,
    ``profile``: nested dicts, floats), so every parsed record must
    re-encode to the bytes on disk.  ``read_jsonl`` is strict JSON: a
    bare NaN / Infinity fails the parse.
    """
    path = tmp_path / "events.jsonl"
    _write_grid_log(path, "lockstep", workers=2)
    records = read_jsonl(path)
    assert {"rollup", "worker_sample", "workers", "profile"} <= {
        record["kind"] for record in records
    }
    assert path.read_text().splitlines(keepends=True) == [
        json.dumps(record, separators=(", ", ": ")) + "\n"
        for record in records
    ]
