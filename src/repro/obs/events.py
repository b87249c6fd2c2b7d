"""The structured event log: schema v3, its sink, and validation.

Every record is one JSON object per line (JSONL) with a common
envelope::

    {"v": 3, "kind": "...", "run": "r1" | null, "round": 3, "step": 17, ...}

The clock is **logical**: ``run`` is the observer-scoped run id,
``round`` the protocol round the observer was last told about, and
``step`` a monotonically increasing per-log sequence number.  No
deterministic record carries wall time, so two logs of the same
workload in fresh processes are byte-identical and diffable.  Records
that *do* derive from the wall clock (span profiles, worker timings)
carry ``"nondeterministic": true`` and are excluded from that
contract.

The schema is deliberately closed: :func:`validate_record` rejects
unknown kinds and missing or mistyped required fields, so CI can gate
recorded artifacts (see the fuzz-smoke job) and downstream tooling
can rely on the documented shape in ``docs/observability.md``.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib
import re
from json.encoder import encode_basestring_ascii as _quote
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    List,
    Mapping,
    NoReturn,
    Optional,
    Tuple,
    Union,
)

#: Bump on incompatible record-shape changes.
SCHEMA_VERSION = 3

#: Fields present on every record.  ``run`` may be null (events emitted
#: outside any run — sweep chunks, the counters dump).
ENVELOPE_FIELDS: Dict[str, Tuple[type, ...]] = {
    "v": (int,),
    "kind": (str,),
    "round": (int,),
    "step": (int,),
}

#: Required payload fields per event kind.  A value is a tuple of
#: accepted types; ``type(None)`` marks a nullable field.
EVENT_FIELDS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # execution lifecycle
    "run_start": {
        "n": (int,),
        "t": (int,),
        "seed": (int,),
        "adversary": (str,),
        "faulty": (list,),
    },
    "run_end": {
        "rounds": (int,),
        "decided": (int,),
        "messages": (int,),
        "non_null": (int,),
        "bits": (int,),
    },
    "round_start": {},
    "round_end": {"messages": (int,), "non_null": (int,), "bits": (int,)},
    # traffic: one record per sender per round, ``messages`` holding
    # one entry per non-bottom message in landing order —
    # ``[receiver, bits, non_null]``, plus a payload ``summary`` when
    # the sender is faulty.  Faulty receivers are listed too;
    # :func:`repro.obs.trace.burst_edges` keeps the correct ones.
    "send": {"sender": (int,), "faulty": (bool,), "messages": (list,)},
    # state changes: one record per batch of ``receive`` calls — a
    # lockstep round, or one processor under an asynchronous schedule —
    # listing the processors in the order their state changed.
    "state": {"processes": (list,)},
    "decide": {
        "process": (int,),
        "value": (str, int, float, bool, type(None)),
    },
    # sweep-cell lifecycle
    "cell_start": {
        "index": (int,),
        "adversary": (str,),
        "seed": (int,),
        "faulty": (list,),
    },
    "cell_end": {"index": (int,), "holds": (bool, type(None))},
    "chunk": {"index": (int,), "cells": (int,)},
    # cross-worker telemetry rollups: compact counter deltas streamed
    # mid-run so ``repro status`` can reconstruct progress and cache
    # hit rates from a half-finished log.  ``scope`` names the unit of
    # work ("plan" announces a pool's cell total, "chunk" follows each
    # returned pool chunk, "protocol" each fuzz protocol); ``counters``
    # is the registry delta since the previous rollup.
    "rollup": {
        "scope": (str,),
        "index": (int,),
        "cells": (int,),
        "counters": (dict,),
    },
    # fuzz campaign summary (one per run_campaign under an observer)
    "fuzz_campaign": {
        "seed": (int,),
        "executions": (int,),
        "failures": (int,),
        "shrunk": (int,),
    },
    # registry dump (deterministic counters only)
    "counters": {"counters": (dict,)},
    # nondeterministic section
    "profile": {"spans": (dict,), "gauges": (dict,)},
    "workers": {
        "planned": (int,),
        "workers": (list,),
        "wall_s": (float, int),
        "idle_s": (float, int),
    },
    "worker_sample": {
        "chunk": (int,),
        "worker": (int,),
        "cells": (int,),
        "busy_s": (float, int),
    },
}

#: Names a payload field may not take: the line encoders write the
#: envelope ahead of the payload, so a clash would repeat a key.
_ENVELOPE_NAMES = frozenset(ENVELOPE_FIELDS) | {"run"}

#: Kinds whose records must be flagged ``"nondeterministic": true`` —
#: they embed wall-clock measurements.
NONDETERMINISTIC_KINDS = frozenset({"profile", "workers", "worker_sample"})


def json_safe(value: Any) -> Any:
    """``value`` if JSON-representable as a scalar, else its ``repr``.

    Event payload fields must stay diffable text; arbitrary protocol
    values (BOTTOM, tuples, payload objects) are rendered, never
    serialized — the full-fidelity record of a run is its pickled
    :class:`~repro.runtime.engine.ExecutionResult`, not the event log.
    Non-finite floats have no JSON spelling (the sink refuses them), so
    they are rendered too.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return value
    return repr(value)


# -- line encoders ----------------------------------------------------------
#
# A record is the line ``json.dumps(record, separators=(", ",
# ": ")) + "\n"`` would give — that spelling is the on-disk contract
# (pinned by tests/obs/test_golden_log.py) — but it is assembled from
# parts that are each rendered once: the envelope prefix per
# kind/run/round, the ``, "name": `` fragment per field name, and an
# entry list's text per distinct tail (:meth:`EventLog.entries`).

#: The one stdlib encoder behind every value without a direct path:
#: ``None``, floats, containers, and subclasses of the scalar types.
_encode_other = json.JSONEncoder(
    separators=(", ", ": "), allow_nan=False
).encode


def _json(value: Any) -> str:
    """``value`` as JSON text; exact ``str``/``int``/``bool`` directly."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _quote(value)
    if kind is bool:
        return "true" if value else "false"
    return _encode_other(value)


@functools.lru_cache(maxsize=1024, typed=True)  # keeps 1 and True apart
def _tail_text(*tail: Any) -> str:
    """An entry's text after its head: ``tail`` up to the closing ``]``."""
    return _encode_other(tail)[1:]


@functools.lru_cache(maxsize=4096)
def _entry_text(head: int, tail: str) -> str:
    """One entry's text: ``head`` and a tail's text from
    :func:`_tail_text`."""
    return f"[{int.__repr__(head)}, {tail}"


@functools.lru_cache(maxsize=1024)
def _uniform_text(heads: Tuple[Any, ...], tail: str) -> str:
    return "[" + ", ".join(f"[{_json(h)}, {tail}" for h in heads) + "]"


#: Rollover part naming: ``<base>.jsonl.part-N`` (N starts at 1; the
#: capped base file is part 0 of the sequence).
_PART_RE = re.compile(r"^(?P<base>.+\.jsonl)\.part-(?P<n>\d+)$")


class EventLog:
    """An append-only JSONL sink streamed to ``path``.

    Each record is written as one encoded line when it is appended and
    is not retained; :meth:`close` flushes the file, and the log is
    read back with :func:`read_log` or :func:`scan_log`, as
    ``repro status`` reads it.  Writing after :meth:`close` raises
    ``ValueError``, as a closed file does.

    The log owns ``step``, the per-log sequence number: :meth:`emit`
    stamps it; the caller supplies the rest of the logical clock (run
    id and round).

    ``cap_bytes`` bounds each on-disk file: once a write would push the
    current file past the cap, the log rolls over to
    ``<path>.part-1``, ``<path>.part-2``, … so million-event campaigns
    never produce a single unbounded JSONL.  A record is never split
    across parts, so each part remains independently valid JSONL
    (``step`` continuity is a whole-sequence property; use
    :func:`read_log` to reassemble).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        cap_bytes: Optional[int] = None,
    ):
        self.path = pathlib.Path(path)
        self.cap_bytes = cap_bytes
        self.step = 0
        self._part = 0
        self._part_bytes = 0
        # Rendered-once line parts: ``, "name": `` per field name, the
        # envelope's head per kind, and its clock part (run, round and
        # the step's name) at the clock last stamped.
        self._names: Dict[str, str] = {}
        self._kinds: Dict[str, str] = {}
        self._clock: Optional[Tuple[Optional[str], int]] = None
        self._clock_text = ""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] = open(self.path, "w")

    def emit(
        self,
        kind: str,
        run: Optional[str],
        round_number: int,
        fields: Mapping[str, Any],
    ) -> None:
        """Append one event stamped ``run``, ``round`` and the next step."""
        if not _ENVELOPE_NAMES.isdisjoint(fields):
            raise ValueError(
                f"{kind}: payload fields "
                f"{sorted(_ENVELOPE_NAMES.intersection(fields))} would "
                "shadow the envelope"
            )
        self.step = step = self.step + 1
        self._write_line(
            f"{self._prefix(kind, run, round_number)}{step}"
            f"{self._render(fields)}}}\n"
        )

    def sends(
        self,
        run: Optional[str],
        round_number: int,
        bursts: List[Tuple[int, bool, str]],
    ) -> None:
        """One ``send`` record per ``(sender, faulty, messages)`` of a
        round, in order, ``messages`` the text of :meth:`entries` or
        :meth:`uniform_entries`: :meth:`emit` without the generic field
        walk, for the kind a log writes most."""
        step = self.step
        self.step += len(bursts)
        prefix = self._prefix("send", run, round_number)
        lines = [
            f'{prefix}{number}, "sender": {_json(sender)}, "faulty": '
            f'{"true" if faulty else "false"}, "messages": {messages}}}\n'
            for number, (sender, faulty, messages) in enumerate(bursts, step + 1)
        ]
        if self.cap_bytes is None:
            self._handle.write("".join(lines))
        else:
            for line in lines:
                self._write_line(line)

    def tail(self, *fields: Any) -> str:
        """The text of an entry's scalar ``fields`` after its head, up
        to the entry's closing ``]``; rendered once per distinct tail."""
        return _tail_text(*fields)

    def entries(self, heads: Iterable[Any], tails: Iterable[str]) -> str:
        """The text of ``[[head, *tail], ...]``, each tail's text from
        :meth:`tail`."""
        # Only an exact ``int`` head is memoised: a Byzantine sender's
        # key could be an ``int`` subclass whose ``==`` lies.
        entries = [
            _entry_text(h, t) if type(h) is int else f"[{_json(h)}, {t}"
            for h, t in zip(heads, tails)
        ]
        return "[" + ", ".join(entries) + "]"

    def uniform_entries(self, heads: Tuple[Any, ...], tail: str) -> str:
        """:meth:`entries` with one :meth:`tail` for every head, rendered
        once per ``(heads, tail)``."""
        return _uniform_text(heads, tail)

    def _render(self, fields: Mapping[str, Any]) -> str:
        """``, "name": value`` for every field, in order."""
        names = self._names
        parts: List[str] = []
        for name, value in fields.items():
            fragment = names.get(name)
            if fragment is None:
                fragment = names[name] = ", " + _quote(name) + ": "
            parts.append(fragment)
            parts.append(_json(value))
        return "".join(parts)

    def _prefix(
        self, kind: str, run: Optional[str], round_number: int
    ) -> str:
        """The line of ``kind`` at this clock, up to its step value."""
        clock = (run, round_number)
        if clock != self._clock:
            self._clock = clock
            self._clock_text = (
                f', "run": {_json(run)}, "round": {_json(round_number)}, '
                '"step": '
            )
        head = self._kinds.get(kind)
        if head is None:
            head = self._kinds[kind] = (
                f'{{"v": {SCHEMA_VERSION}, "kind": {_json(kind)}'
            )
        return head + self._clock_text

    def _write_line(self, line: str) -> None:
        if self.cap_bytes is not None:
            if (
                self._part_bytes > 0
                and self._part_bytes + len(line) > self.cap_bytes
            ):
                self._rollover()
            self._part_bytes += len(line)
        self._handle.write(line)

    def _rollover(self) -> None:
        self._handle.close()
        self._part += 1
        part_path = self.path.with_name(
            f"{self.path.name}.part-{self._part}"
        )
        self._handle = open(part_path, "w")
        self._part_bytes = 0

    def close(self) -> None:
        """Flush and close the log; the handle stays closed."""
        self._handle.close()


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not JSON")


def _part_index(path: pathlib.Path) -> Tuple[str, int]:
    """Sort key placing ``x.jsonl`` before its ``x.jsonl.part-N``."""
    match = _PART_RE.match(path.name)
    if match is not None:
        return match.group("base"), int(match.group("n"))
    return path.name, 0


def log_paths(path: Union[str, pathlib.Path]) -> List[pathlib.Path]:
    """The ordered file sequence making up one (possibly rotated) log.

    - a directory: every ``*.jsonl`` base log plus its rollover parts,
      grouped by base name and ordered by part number;
    - a base ``x.jsonl`` file: the file followed by any
      ``x.jsonl.part-N`` siblings;
    - an explicit ``.part-N`` file: just that part.
    """
    root = pathlib.Path(path)
    if root.is_dir():
        candidates = [
            child
            for child in root.iterdir()
            if child.is_file()
            and (child.suffix == ".jsonl" or _PART_RE.match(child.name))
        ]
        return sorted(candidates, key=_part_index)
    if _PART_RE.match(root.name):
        return [root]
    parts = [
        sibling
        for sibling in root.parent.glob(f"{root.name}.part-*")
        if _PART_RE.match(sibling.name)
    ]
    return [root] + sorted(parts, key=_part_index)


def scan_log(
    path: Union[str, pathlib.Path],
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Load a log that may be in flight, torn or rotated.

    ``path`` may be a single JSONL file (``.part-N`` siblings are
    discovered), an explicit part, or a directory of logs; records come
    back in logical-clock order across the whole sequence.  A line that
    is not a JSON object — typically the torn final line of a killed
    writer — is skipped and named, ``"<file>:<line>: <why>"``, in the
    second list.  Strict JSON only: the bare ``NaN`` / ``Infinity``
    constants Python's decoder would otherwise accept are refused like
    any other malformed line.  Lines are decoded one at a time, so
    bytes that are not UTF-8 spoil only their own line.
    """
    records: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for part in log_paths(path):
        with open(part, "rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line, parse_constant=_reject_constant)
                except ValueError as error:
                    skipped.append(
                        f"{part}:{line_number}: not valid JSON: {error}"
                    )
                    continue
                if not isinstance(record, dict):
                    skipped.append(
                        f"{part}:{line_number}: record is not a JSON object"
                    )
                    continue
                records.append(record)
    return records, skipped


def read_log(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """:func:`scan_log`, strict: a skipped line raises ``ValueError``."""
    records, skipped = scan_log(path)
    if skipped:
        raise ValueError(skipped[0])
    return records


def validate_record(record: Dict[str, Any]) -> List[str]:
    """Schema problems with one record (empty list = valid)."""
    problems: List[str] = []
    for field, types in ENVELOPE_FIELDS.items():
        value = record.get(field)
        if not isinstance(value, types) or isinstance(value, bool):
            problems.append(
                f"envelope field {field!r} missing or not {types[0].__name__}"
            )
    if problems:
        return problems
    if record["v"] != SCHEMA_VERSION:
        problems.append(
            f"schema version {record['v']} != {SCHEMA_VERSION}"
        )
    run = record.get("run")
    if run is not None and not isinstance(run, str):
        problems.append("envelope field 'run' must be a string or null")
    kind = record["kind"]
    fields = EVENT_FIELDS.get(kind)
    if fields is None:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    for field, types in fields.items():
        if field not in record:
            problems.append(f"{kind}: missing field {field!r}")
            continue
        value = record[field]
        if isinstance(value, bool) and bool not in types:
            problems.append(f"{kind}: field {field!r} has wrong type bool")
        elif not isinstance(value, types):
            problems.append(
                f"{kind}: field {field!r} has wrong type "
                f"{type(value).__name__}"
            )
    if kind == "send" and isinstance(record.get("messages"), list):
        problems.extend(_message_problems(record))
    if kind == "state" and isinstance(record.get("processes"), list):
        if not all(type(p) is int for p in record["processes"]):
            problems.append("state: processes are not all integers")
    if kind in NONDETERMINISTIC_KINDS:
        if record.get("nondeterministic") is not True:
            problems.append(
                f"{kind}: wall-clock-derived record must carry "
                "'nondeterministic': true"
            )
    elif record.get("nondeterministic"):
        problems.append(
            f"{kind}: deterministic kind wrongly flagged nondeterministic"
        )
    return problems


def _message_problems(record: Dict[str, Any]) -> List[str]:
    """Malformed entries of a ``send`` record's ``messages``."""
    faulty = record.get("faulty") is True
    shape = "[receiver, bits, non_null" + (", summary]" if faulty else "]")
    problems: List[str] = []
    for index, entry in enumerate(record["messages"]):
        if not (
            isinstance(entry, list)
            and len(entry) == 3 + faulty
            and type(entry[0]) is int
            and type(entry[1]) is int
            and type(entry[2]) is bool
            and (not faulty or isinstance(entry[3], str))
        ):
            problems.append(f"send: message {index} is not {shape}")
    return problems
