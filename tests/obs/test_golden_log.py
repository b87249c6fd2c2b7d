"""Golden digests of a compact-BA grid's streamed event log.

Every deterministic line of the streamed log — envelope, field order,
separators, escapes — is part of the on-disk contract, and a capped
log must roll over at the same records.  Only the wall-clock
``profile`` record is excluded (it is flagged
``"nondeterministic": true``).  Under the asynchronous reference
(``tests/runtime/reference_async.py``) the same grid writes, round by
round, the same records in schedule order.

The pin moved twice, on purpose.  First with event schema v2: a sender's round
of traffic became one ``send`` record listing its messages, where v1
wrote a ``send`` or ``corrupt`` line per message and, under the old
trace mode, a ``deliver`` line per message landing at a correct
receiver.  The traced grid went from 14,832 deterministic lines before
the ``counters`` record (5,880 ``send``, 1,960 ``corrupt``, 5,600
``deliver``) to 2,512 (1,120 ``send``).  ``test_v2_log_carries_what_v1_did``
holds the new log to a fixture recorded from the v1 log, so the move
lost no information.

Then with event schema v3: a lockstep round's state changes became one
``state`` record listing the processors, where v2 wrote one per
processor with a ``summary`` that read ``map(4)`` on every line of
this grid.  The grid went from 2,512 lines to 1,840 (840 ``state``
records to 168), and every other record kept its bytes but ``v`` and
``step``.  ``test_v3_log_carries_what_v2_did`` holds the new log to a
fixture recorded from the v2 log.

The pin is in two parts.  ``GOLDEN`` hashes every deterministic line
except the closing ``counters`` record (re-recorded, over the same
bytes, at the parent of the PR that split it).  That record names
cache and kernel counters, which are *meant* to move when a PR removes
redundant work, so it is pinned as the literal ``COUNTERS`` instead:
a review shows exactly which counters a change moved, and nothing else
in the log can hide behind them.
"""

import hashlib
import json
import pathlib

import pytest

from repro.adversary.base import Adversary
from repro.agreement.eig_agreement import eig_agreement_factory
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays.store import InternedArray, clear_shared_stores
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate
from repro.fullinfo.protocol import full_information_sizer
from repro.obs import EventLog, Observer, log_paths, observing
from repro.obs.events import read_log
from repro.obs.rollup import status_from_records
from repro.obs.trace import check_closedness
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig

from tests.obs.causal_dag import build_dags
from tests.obs.reference_log import ReferenceLog
from tests.runtime.reference_async import async_schedule, schedule_for

GOLDEN = (
    1840,
    "595757459f5427d598a391dcb4470f3cac5ed07101b2640649a94b2a48f3dbfd",
)

#: The closing ``counters`` record.
#: Against the parent of the PR that made Protocol 3's rounds
#: delta-driven: ``arrays.intern.hit`` was 5181 (expansions are now
#: built once per store, not once per processor), ``compact.expansion``
#: was hit 2326 / miss 830 (a miss is now a build, shared store-wide;
#: a hit is an expansion that needed none), the two
#: ``compact.avalanche.*`` names are new, and ``fullinfo.legality.*``
#: appear because CORE admission goes through the ``ReceiveGate`` that
#: counts them.  Against the parent of the PR that moved legality
#: verdicts from one dict per gate to the store's ``verdicts`` memo:
#: ``fullinfo.legality`` was hit 650 / miss 710 — a node is now vetted
#: once per store (19 distinct nodes), not once per processor's gate,
#: and the 780 ``phi_1`` domain asks, which had their own uncounted
#: verdict column, go through the same function and count as hits.
#: Against the parent of event schema v2: ``net.size_cache.hit`` was
#: 9240, because the retired trace mode measured every ``deliver`` edge
#: again through the size memo (4,200 extra hits); a ``send`` entry
#: reuses the meter's one measurement.  Against the parent of the PR
#: that shared expansion views between processors at the same batch
#: states: ``compact.expansion.hit`` was 1360 and ``fullinfo.legality.hit``
#: 2121 — a first-time scalar image (one ``phi_1`` identity hit and one
#: domain verdict) is now computed once per view, not once per
#: processor — and ``net.size_cache`` was hit 5040 / miss 840: processors
#: at the same batch states with the same CORE now send one payload
#: object, which the meter measures once a round.  Against the parent
#: of the PR that walks EIG states down their dominant children:
#: ``eig.kernel.flat`` was 20 and ``arrays.flat.rows`` 59 — 12 of the
#: 20 misses are now settled by the walk (``eig.kernel.descent``), with
#: no sweep, so the flat tables mirror two fewer rows.  Against the
#: parent of the PR that shared CORE admission between processors at
#: the same batch states: ``fullinfo.legality.hit`` was 1617 — a row's
#: verdicts are now asked once per distinct row at a stage round past
#: block 1, not once per receiver (block 1 has no batch states to share
#: them on).  Every other value is the parent's.
COUNTERS = {
    "arrays.flat.rows": 57,
    "arrays.intern.hit": 909,
    "arrays.intern.miss": 59,
    "compact.avalanche.skipped": 2480,
    "compact.avalanche.tallied": 3400,
    "compact.expansion.hit": 352,
    "compact.expansion.miss": 76,
    "eig.decision.hit": 100,
    "eig.decision.miss": 20,
    "eig.kernel.descent": 12,
    "eig.kernel.flat": 8,
    "fullinfo.legality.hit": 1241,
    "fullinfo.legality.miss": 19,
    "net.bits": 224056,
    "net.messages": 5880,
    "net.non_null_messages": 4256,
    "net.size_cache.hit": 5430,
    "net.size_cache.miss": 450,
    "runs": 24,
    "sweep.cells": 24,
}

CAP_BYTES = 100_000
#: ``(first step, deterministic lines)`` of each part of the lockstep
#: log written under ``CAP_BYTES``; the last part ends with the
#: ``counters`` record.
GOLDEN_PARTS = [(1, 562), (563, 553), (1116, 544), (1660, 182)]

#: What the v1 log of this grid said, recorded from it before schema
#: v2 (see :func:`_information`).
EQUIVALENCE = pathlib.Path(__file__).parent / "golden" / (
    "information_equivalence.json"
)

#: Per ``(run, round)`` of this grid's v2 log, lockstep and under
#: ``async:3:7``: the processes its ``state`` records named, in order,
#: and the distinct ``summary`` strings they carried.
STATE_PROCESSES = pathlib.Path(__file__).parent / "golden" / (
    "state_processes.json"
)

#: The deterministic keys the status report had when the fixture was
#: recorded.
STATUS_KEYS = (
    "phase", "runs", "cells", "progress", "chunks", "rollups",
    "protocols", "counters", "hit_rates", "fuzz",
)

#: What this grid's log read as through the three readers that
#: :func:`status_from_records` replaced — ``summarize_records``,
#: ``profile_records`` and the status report of the time — recorded
#: from them.  Of the wall-clock ``profile`` record it keeps span
#: counts and gauge names: times vary run to run, and a high-water
#: gauge with what the process ran before.  Its two ``records`` counts
#: moved from 2,514 to 1,842 with event schema v3 (one ``state``
#: record a lockstep round); nothing else in it did.
MERGED_READERS = pathlib.Path(__file__).parent / "golden" / (
    "merged_readers.json"
)


@pytest.fixture(autouse=True)
def _fresh_shared_stores():
    # The closing ``counters`` record names kernel and intern counters,
    # so the digest is taken over empty pools.
    clear_shared_stores()
    yield
    clear_shared_stores()


def _write_grid_log(path, cap_bytes=None, workers=1):
    config = SystemConfig(n=7, t=2)
    log = EventLog(path, cap_bytes=cap_bytes)
    with observing(Observer(events=log)):
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
        )
    assert not report.violations
    return report


def _deterministic_lines(path):
    return [
        line for line in path.read_bytes().splitlines(keepends=True)
        if b'"nondeterministic": true' not in line
    ]


def _check_against_golden(lines):
    """The pinned digest over all but the ``counters`` line, then that."""
    counters = [line for line in lines if b'"kind": "counters"' in line]
    assert counters == lines[-1:]
    rest = lines[:-1]
    digest = hashlib.sha256(b"".join(rest)).hexdigest()
    assert (len(rest), digest) == GOLDEN
    record = json.loads(counters[0])
    assert record["counters"] == COUNTERS
    assert record["step"] == len(lines)


def _brackets(lines):
    """Each ``(run, round)``'s records, ``step`` dropped, as a multiset;
    a ``state`` record counts once per process it lists (lockstep lists
    a round's processes in one record, an asynchronous schedule one
    process a record)."""
    brackets = {}
    for line in lines:
        record = json.loads(line)
        del record["step"]
        key = (record["run"], record["round"])
        for record in _one_per_process(record):
            brackets.setdefault(key, []).append(
                json.dumps(record, sort_keys=True)
            )
    return {key: sorted(records) for key, records in brackets.items()}


def _one_per_process(record):
    if record["kind"] != "state":
        return [record]
    return [
        dict(record, processes=[process]) for process in record["processes"]
    ]


@pytest.mark.parametrize("scheduler", ["async:3:7", "lockstep"])
def test_deterministic_records_match_the_pinned_digest(scheduler, tmp_path):
    """Lockstep writes the pinned bytes; an asynchronous schedule writes
    a permutation of them inside every round, and stays closed."""
    path = tmp_path / "events.jsonl"
    _write_grid_log(path)
    lines = _deterministic_lines(path)
    _check_against_golden(lines)
    if scheduler != "lockstep":
        lockstep = lines
        path = tmp_path / "async.jsonl"
        with async_schedule(3, 7):
            _write_grid_log(path)
        lines = _deterministic_lines(path)
        assert lines != lockstep
        assert _brackets(lines) == _brackets(lockstep)
    assert check_closedness([json.loads(line) for line in lines]) == []


def test_capped_log_rolls_over_at_the_pinned_records(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_grid_log(path, cap_bytes=CAP_BYTES)
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
    _check_against_golden(lines)


def test_pooled_log_is_exactly_the_stdlib_encoding(tmp_path):
    """The sink assembles lines from pre-rendered parts instead of
    calling ``json.dumps``; a pooled log carries the records the serial
    grid does not (``rollup``, ``worker_sample``, ``workers``,
    ``profile``: nested dicts, floats), so every parsed record must
    re-encode to the bytes on disk.  ``read_log`` is strict JSON: a
    bare NaN / Infinity fails the parse.
    """
    path = tmp_path / "events.jsonl"
    _write_grid_log(path, workers=2)
    records = read_log(path)
    assert {"rollup", "worker_sample", "workers", "profile"} <= {
        record["kind"] for record in records
    }
    assert path.read_text().splitlines(keepends=True) == [
        json.dumps(record, separators=(", ", ": ")) + "\n"
        for record in records
    ]


class MemoProbe(Adversary):
    """Faulty traffic that a stale ``send``-entry memo would misreport.

    Both faulty senders ship one list object, which the first of them
    grows every round (same ``id``, new content), to the odd ids; to
    the even ids they replay, every round from the second on, an
    interned correct message of an earlier round.
    """

    def __init__(self, faulty_ids):
        super().__init__(faulty_ids)
        self.grown = []
        self.replayed = None

    def outgoing(self, round_number, sender, context):
        if sender == min(self.faulty_ids):
            self.grown.append(round_number)
        if self.replayed is None:
            message = context.correct_message(1, 1)
            if type(message) is InternedArray:
                self.replayed = message
        return {
            p: self.grown if p % 2 or self.replayed is None else self.replayed
            for p in self.config.process_ids
        }


def test_memoised_send_entries_are_the_fresh_ones(tmp_path):
    """The log renders ``send`` entries from memos;
    :class:`~tests.obs.reference_log.ReferenceLog` builds them afresh.
    Under traffic that changes behind each memo's key — a correct
    sender's bits grow every round — the two must agree line for line,
    warm memos included."""
    config = SystemConfig(n=7, t=2)

    def run(log):
        adversary = MemoProbe([6, 7])
        with observing(Observer(events=log)):
            run_protocol(
                eig_agreement_factory(config, [0, 1], default=0), config,
                {p: p % 2 for p in config.process_ids},
                adversary=adversary, max_rounds=config.t + 2,
                sizer=full_information_sizer(2, config.n),
            )
        return adversary

    fresh = tmp_path / "fresh.jsonl"
    streamed = [tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"]
    adversary = run(EventLog(streamed[0]))
    run(ReferenceLog(fresh))
    run(EventLog(streamed[1]))
    assert type(adversary.replayed) is InternedArray
    records = read_log(fresh)
    assert fresh.read_text().splitlines(keepends=True) == [
        json.dumps(record, separators=(", ", ": ")) + "\n"
        for record in records
    ]
    sends = [record for record in records if record["kind"] == "send"]
    assert len({
        tuple(record["messages"][0]) for record in sends if not record["faulty"]
    }) > 1
    assert {
        entry[3] for record in sends if record["faulty"]
        for entry in record["messages"]
    } == {"list(1)", "list(2)", "list(3)", "array[d1 w7]"}
    # The closing counters differ run to run: the stores stay warm.
    assert [record["kind"] for record in records[-2:]] == [
        "counters", "profile",
    ]
    expected = _deterministic_lines(fresh)[:-1]
    for path in streamed:
        assert _deterministic_lines(path)[:-1] == expected


def _retired_reports(status):
    """The three retired readers' reports, re-read from the one report.

    Each value is taken from where the one report keeps it; only these
    moved: ``summarize``'s ``runs`` and ``cells.total`` are
    ``runs.started`` and ``cells.serial``, ``profile``'s per-pool
    ``workers`` are ``pools``, and the old status's ``pool`` and
    ``top_spans`` are the last of ``pools`` and the largest ``spans``.
    """
    cells = status["cells"]
    pools = status["pools"]
    top = sorted(
        status["spans"].items(),
        key=lambda item: (-item[1]["total_s"], item[0]),
    )[:5]
    return {
        "summarize": {
            "records": status["records"],
            "runs": status["runs"]["started"],
            "decisions": status["decisions"],
            "sends": status["sends"],
            "corruptions": status["corruptions"],
            "cells": {
                "total": cells["serial"],
                "held": cells["held"],
                "falsified": cells["falsified"],
            },
            "per_round": status["per_round"],
            "counters": status["counters"],
            "hit_rates": status["hit_rates"],
        },
        "profile": {
            "spans": status["spans"],
            "gauges": status["gauges"],
            "workers": [
                {key: pool[key] for key in ("workers", "wall_s", "idle_s")}
                for pool in pools
            ],
        },
        "status": {
            **{key: status[key] for key in STATUS_KEYS},
            "records": status["records"],
            "skipped_lines": status["skipped_lines"],
            "workers": status["workers"],
            "cells": {
                key: cells[key]
                for key in ("planned", "pooled", "serial", "done")
            },
            "pool": {
                "workers": pools[-1]["planned"],
                "wall_s": pools[-1]["wall_s"],
                "idle_s": pools[-1]["idle_s"],
            } if pools else None,
            "top_spans": [
                {"span": path, "count": stats["count"],
                 "total_s": stats["total_s"]}
                for path, stats in top
            ],
        },
    }


def _without_wall_times(reports):
    """``reports`` with span times and gauge values dropped."""
    reports["profile"]["gauges"] = sorted(reports["profile"]["gauges"])
    reports["profile"]["spans"] = {
        path: {"count": stats["count"]}
        for path, stats in reports["profile"]["spans"].items()
    }
    reports["status"]["top_spans"] = sorted(
        ({"span": entry["span"], "count": entry["count"]}
         for entry in reports["status"]["top_spans"]),
        key=lambda entry: entry["span"],
    )
    return reports


def test_one_report_carries_what_the_three_readers_did(tmp_path):
    """Every value the retired ``summarize``, ``profile`` and status
    readers returned for this grid is in the one report, unchanged."""
    path = tmp_path / "events.jsonl"
    _write_grid_log(path)
    reports = _retired_reports(status_from_records(read_log(path)))
    assert _without_wall_times(reports) == json.loads(
        MERGED_READERS.read_text()
    )


def _information(records):
    """What a log says about its runs, independent of how it spells it.

    Per run, the causal DAG with edge ``step`` dropped (a v1 edge had
    its own record, a v2 edge shares its burst's step) and the edge
    list as a digest; the summary without ``records`` (the line count
    is what v2 changed); and the deterministic part of the status.
    """
    dags = []
    for dag in build_dags(records):
        document = dag.to_json()
        edges = [
            [edge["kind"], edge["src"], edge["dst"], edge["bits"],
             edge["non_null"], edge["faulty"]]
            for edge in document["edges"]
        ]
        document["edges"] = {
            "count": len(edges),
            "sha256": hashlib.sha256(
                json.dumps(edges, separators=(",", ":")).encode()
            ).hexdigest(),
        }
        dags.append(document)
    reports = _retired_reports(status_from_records(records))
    summary = reports["summarize"]
    del summary["records"]
    status = reports["status"]
    return {
        "dags": dags,
        "summary": summary,
        "status": {key: status[key] for key in STATUS_KEYS},
    }


def test_v2_log_carries_what_v1_did(tmp_path):
    """The fixture holds, from the v1 log of this grid, the DAGs of its
    traced form and the summary and status of its plain form (the
    traced form's ``net.size_cache.hit`` counted the trace mode's own
    re-measurements)."""
    path = tmp_path / "events.jsonl"
    _write_grid_log(path)
    records = read_log(path)
    assert _information(records) == json.loads(EQUIVALENCE.read_text())
    assert check_closedness(records) == []


def _state_rows(records):
    """``[run, round, processes]`` per round, from its ``state`` records."""
    rows = {}
    for record in records:
        if record["kind"] == "state":
            key = (record["run"], record["round"])
            rows.setdefault(key, []).extend(record["processes"])
    return [[run, round_number, processes]
            for (run, round_number), processes in rows.items()]


@pytest.mark.parametrize("scheduler", ["async:3:7", "lockstep"])
def test_v3_log_carries_what_v2_did(scheduler, tmp_path):
    """Every round's ``state`` records name the processes the v2 log's
    did, in the same order: lockstep in one record a round, the
    asynchronous schedule one record per state change.  The ``summary``
    v2 wrote read the same constant on every line of this grid, so
    dropping it lost nothing."""
    path = tmp_path / "events.jsonl"
    with schedule_for(scheduler):
        _write_grid_log(path)
    records = read_log(path)
    fixture = json.loads(STATE_PROCESSES.read_text())[scheduler]
    assert _state_rows(records) == [row[:3] for row in fixture]
    assert {summary for row in fixture for summary in row[3]} == {"map(4)"}
    states = [record for record in records if record["kind"] == "state"]
    if scheduler == "lockstep":
        assert len(states) == len(fixture)
    else:
        assert all(len(record["processes"]) == 1 for record in states)
