"""Full execution traces.

A trace records every delivered envelope and every correct processor's
post-round state snapshot.  Traces are what the simulation checker of
:mod:`repro.core.simulation` consumes to verify, round by round, that
``f_p(state(p, i, E')) = state(p, r(i), E)``.

Traces are optional (they hold the entire message history, which for
full-information protocols is exponential) and are enabled per run via
:func:`repro.runtime.engine.run_protocol`.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, List, Union

from repro.runtime.message import Envelope
from repro.types import ProcessId, Round

#: Bump when the persisted trace layout changes incompatibly.
TRACE_FORMAT_VERSION = 1


class ExecutionTrace:
    """Accumulates envelopes and state snapshots per round."""

    def __init__(self) -> None:
        self._envelopes: List[Envelope] = []
        self._snapshots: Dict[Round, Dict[ProcessId, Any]] = {}

    def record_envelope(self, envelope: Envelope) -> None:
        """Record one delivered message."""
        self._envelopes.append(envelope)

    def record_snapshot(
        self, round_number: Round, process_id: ProcessId, state: Any
    ) -> None:
        """Record a correct processor's state after its round-``r`` change."""
        self._snapshots.setdefault(round_number, {})[process_id] = state

    # -- queries ----------------------------------------------------------

    @property
    def envelopes(self) -> List[Envelope]:
        """All recorded envelopes, in delivery order."""
        return list(self._envelopes)

    def messages_in_round(self, round_number: Round) -> List[Envelope]:
        """Envelopes delivered in one round."""
        return [
            envelope
            for envelope in self._envelopes
            if envelope.round_number == round_number
        ]

    def messages_from(self, sender: ProcessId) -> List[Envelope]:
        """Envelopes sent by one processor, across all rounds."""
        return [
            envelope for envelope in self._envelopes if envelope.sender == sender
        ]

    def snapshot(self, round_number: Round, process_id: ProcessId) -> Any:
        """The recorded state of ``process_id`` after round ``round_number``.

        Returns ``None`` when no snapshot was recorded (e.g. the
        processor is faulty).
        """
        return self._snapshots.get(round_number, {}).get(process_id)

    def snapshots_in_round(self, round_number: Round) -> Dict[ProcessId, Any]:
        """All recorded snapshots for one round."""
        return dict(self._snapshots.get(round_number, {}))

    @property
    def rounds(self) -> List[Round]:
        """Rounds with at least one snapshot, ascending."""
        return sorted(self._snapshots)

    # -- persistence -------------------------------------------------------

    def to_jsonl(self, path: Union[str, pathlib.Path]) -> None:
        """Persist the trace as JSONL, payloads via the tagged codec.

        The written trace round-trips through :meth:`from_jsonl` with
        full structural equality (interned arrays reload as plain
        tuples, which compare equal), so a recorded execution can be
        re-checked by the simulation checker offline.  One header line
        carries the format version; then one record per envelope in
        delivery order, then one per snapshot in recording order.

        The file is written under a temporary name and renamed into
        place only once every record is encoded, so a value the codec
        refuses (a :class:`TypeError`) leaves no file at ``path``.
        """
        from repro.obs.codec import encode_value

        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        partial = target.with_name(target.name + ".partial")
        try:
            with open(partial, "w") as handle:
                header = {"kind": "trace", "v": TRACE_FORMAT_VERSION}
                handle.write(json.dumps(header) + "\n")
                for envelope in self._envelopes:
                    record: Dict[str, Any] = {
                        "kind": "envelope",
                        "sender": envelope.sender,
                        "receiver": envelope.receiver,
                        "round": envelope.round_number,
                        "payload": encode_value(envelope.payload),
                    }
                    handle.write(json.dumps(record) + "\n")
                for round_number in sorted(self._snapshots):
                    for process_id, state in self._snapshots[
                        round_number
                    ].items():
                        record = {
                            "kind": "snapshot",
                            "round": round_number,
                            "process": process_id,
                            "state": encode_value(state),
                        }
                        handle.write(json.dumps(record) + "\n")
            os.replace(partial, target)
        finally:
            partial.unlink(missing_ok=True)

    @classmethod
    def from_jsonl(
        cls, path: Union[str, pathlib.Path]
    ) -> "ExecutionTrace":
        """Reload a trace written by :meth:`to_jsonl`.

        Raises :class:`ValueError` for a file :meth:`to_jsonl` did not
        write: empty, a foreign header, or a line that is not JSON, is
        nested too deep, or holds a record or value the codec does not
        know.
        """
        from repro.obs.codec import decode_value

        trace = cls()
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty trace file")
        header = _load_line(path, 1, lines[0])
        if not (
            isinstance(header, dict)
            and header.get("kind") == "trace"
            and header.get("v") == TRACE_FORMAT_VERSION
        ):
            raise ValueError(
                f"{path}: not a version-{TRACE_FORMAT_VERSION} trace file"
            )
        for number, line in enumerate(lines[1:], start=2):
            record = _load_line(path, number, line)
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind not in ("envelope", "snapshot"):
                raise ValueError(f"{path}: unknown trace record {kind!r}")
            try:
                if kind == "envelope":
                    trace.record_envelope(
                        Envelope(
                            record["sender"],
                            record["receiver"],
                            record["round"],
                            decode_value(record["payload"]),
                        )
                    )
                else:
                    trace.record_snapshot(
                        record["round"],
                        record["process"],
                        decode_value(record["state"]),
                    )
            except (ValueError, TypeError, KeyError) as error:
                raise ValueError(f"{path}: line {number}: {error}") from None
        return trace


def _load_line(path: Union[str, pathlib.Path], number: int, line: str) -> Any:
    """One line's JSON; :class:`ValueError` if it is not (deep nesting
    makes the parser raise :class:`RecursionError`, reported the same)."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as error:
        raise ValueError(
            f"{path}: line {number} is not JSON ({type(error).__name__})"
        ) from None
