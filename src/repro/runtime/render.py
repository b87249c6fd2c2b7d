"""Human-readable views of recorded executions.

Protocol debugging lives and dies by being able to *see* a round:
who sent what kind of thing to whom, who decided when, which messages
were replaced by the adversary.  These renderers turn an
:class:`repro.runtime.trace.ExecutionTrace` into compact monospace
summaries (payloads are summarised, never dumped — full-information
payloads are exponential).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.engine import ExecutionResult
from repro.types import BOTTOM, SENTINELS, is_bottom


#: The most characters a payload summary takes.
SUMMARY_LIMIT = 28


def summarise_payload(payload: Any) -> str:
    """A short, shape-first description of one message payload, at most
    :data:`SUMMARY_LIMIT` characters, in O(:data:`SUMMARY_LIMIT`) plus a
    tuple's depth; no payload code runs.  Containers read as kind and
    length, anything but a builtin scalar by type."""
    description = _describe(payload)
    if len(description) > SUMMARY_LIMIT:
        description = description[: SUMMARY_LIMIT - 1] + "…"
    return description


@functools.lru_cache(maxsize=None)
def _side_fields() -> Dict[int, str]:
    """The round payload classes' ids, by the field beside ``main`` a
    summary counts; imported on the first summary (only events ask)."""
    from repro.compact.crash_variant import CrashPayload
    from repro.compact.payload import CompactPayload

    return {id(CompactPayload): "votes", id(CrashPayload): "patches"}


def _describe(payload: Any) -> str:
    # By class identity, not name, and by id, as hashing a class may
    # run its metaclass's code: a look-alike class is no round payload.
    side = _side_fields().get(id(type(payload)))
    if side is None:
        return _describe_plain(payload)
    # A faulty sender may put anything in the field: only a tuple is
    # counted, anything else reads ``?``.
    field = getattr(payload, side, None)
    count = tuple.__len__(field) if issubclass(type(field), tuple) else "?"
    main = _describe_plain(getattr(payload, "main", BOTTOM))
    return f"core:{main} {side}:{count}"


_CONTAINERS = ((frozenset, "items"), (dict, "map"), (list, "list"), (set, "set"))
#: A class's own name, read past any ``__name__`` its metaclass defines.
_TYPE_NAME = type.__dict__["__name__"]


def _describe_plain(payload: Any) -> str:
    """Anything but a round payload — one nested in a ``main`` included,
    so no sender chooses how deep a summary goes."""
    if is_bottom(payload):
        return "-"
    # By type, not isinstance, which believes a ``__class__`` property;
    # lengths by the base class, so a subclass's own code cannot run;
    # types by ``is``, so a metaclass's cannot either.
    kind = type(payload)
    if issubclass(kind, tuple):
        depth, width = _shape(payload)
        return f"array[d{depth} w{width}]"
    for container, label in _CONTAINERS:
        if issubclass(kind, container):
            return f"{label}({container.__len__(payload)})"
    if kind is str:
        return repr(payload[:SUMMARY_LIMIT])
    if kind is int and payload.bit_length() > 4 * SUMMARY_LIMIT:
        return f"int({payload.bit_length()} bits)"
    if kind is int or kind is float or kind is bool or payload is None:
        return repr(payload)
    for sentinel in SENTINELS.values():
        if payload is sentinel:
            return sentinel.NAME
    # Not repr: a default one prints the object's address, which would
    # make two logs of one workload differ (repro.obs.events).
    return f"<{_TYPE_NAME.__get__(kind)[:SUMMARY_LIMIT]}>"


def _shape(array: Any) -> tuple:
    depth = 0
    node = array
    width = tuple.__len__(array)
    while issubclass(type(node), tuple) and tuple.__len__(node):
        depth += 1
        node = tuple.__getitem__(node, 0)
    return depth, width


def render_round(
    result: ExecutionResult,
    round_number: int,
    summarise: Callable[[Any], str] = summarise_payload,
) -> str:
    """One round's traffic as a sender-by-receiver matrix."""
    if result.trace is None:
        return "(no trace recorded — run with record_trace=True)"
    ids = result.config.process_ids
    cells = {
        (envelope.sender, envelope.receiver): summarise(envelope.payload)
        for envelope in result.trace.messages_in_round(round_number)
    }
    width = max(
        [len("snd\\rcv")]
        + [len(cells.get((s, r), "-")) for s in ids for r in ids]
        + [len(str(max(ids)))]
    )
    lines = [f"round {round_number}"]
    header = "snd\\rcv".ljust(width + 2) + " ".join(
        str(r).ljust(width) for r in ids
    )
    lines.append(header)
    for sender in ids:
        marker = "x" if sender in result.faulty_ids else " "
        row = f"{sender}{marker}".ljust(width + 2) + " ".join(
            cells.get((sender, receiver), "-").ljust(width)
            for receiver in ids
        )
        lines.append(row)
    return "\n".join(lines)


def render_decisions(result: ExecutionResult) -> str:
    """A per-processor decision timeline."""
    lines = ["decisions:"]
    for process_id in result.config.process_ids:
        if process_id in result.faulty_ids:
            lines.append(f"  {process_id}: (faulty)")
            continue
        decision = result.decisions.get(process_id, BOTTOM)
        if is_bottom(decision):
            lines.append(f"  {process_id}: undecided")
        else:
            lines.append(
                f"  {process_id}: {decision!r} @ round "
                f"{result.decision_rounds[process_id]}"
            )
    return "\n".join(lines)


def render_execution(
    result: ExecutionResult,
    rounds: Optional[List[int]] = None,
) -> str:
    """Selected rounds plus the decision timeline."""
    if result.trace is None:
        return "(no trace recorded — run with record_trace=True)"
    selected = rounds if rounds is not None else list(
        range(1, result.rounds + 1)
    )
    sections = [render_round(result, r) for r in selected]
    sections.append(render_decisions(result))
    return "\n\n".join(sections)
