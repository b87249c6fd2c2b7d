"""Human-readable views of recorded executions.

Protocol debugging lives and dies by being able to *see* a round:
who sent what kind of thing to whom, who decided when, which messages
were replaced by the adversary.  These renderers turn an
:class:`repro.runtime.trace.ExecutionTrace` into compact monospace
summaries (payloads are summarised, never dumped — full-information
payloads are exponential).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.runtime.engine import ExecutionResult
from repro.types import BOTTOM, is_bottom


def summarise_payload(payload: Any, limit: int = 28) -> str:
    """A short, shape-first description of one message payload."""
    description = _describe(payload)
    if len(description) > limit:
        description = description[: limit - 1] + "…"
    return description


# The round payloads, by the field beside ``main`` a summary counts.
_SIDE_FIELD = {"CompactPayload": "votes", "CrashPayload": "patches"}


def _describe(payload: Any) -> str:
    side = _SIDE_FIELD.get(type(payload).__name__)
    if side is None:
        return _describe_plain(payload)
    # A faulty sender may put anything in the field: only a tuple is
    # counted, anything else reads ``?``.
    field = getattr(payload, side)
    count = len(field) if isinstance(field, tuple) else "?"
    return f"core:{_describe_plain(payload.main)} {side}:{count}"


def _describe_plain(payload: Any) -> str:
    """Anything but a round payload — one nested in a ``main`` included,
    so no sender chooses how deep a summary goes."""
    if is_bottom(payload):
        return "-"
    if isinstance(payload, tuple):
        depth, width = _shape(payload)
        return f"array[d{depth} w{width}]"
    if isinstance(payload, frozenset):
        return f"items({len(payload)})"
    if isinstance(payload, dict):
        return f"map({len(payload)})"
    type_name = type(payload).__name__
    if type(payload).__repr__ is object.__repr__ or type_name in _SIDE_FIELD:
        # The default repr prints the object's address, which would
        # make two logs of one workload differ (repro.obs.events).
        return f"<{type_name}>"
    return repr(payload)


def _shape(array: Any) -> tuple:
    depth = 0
    node = array
    width = len(array) if isinstance(array, tuple) else 0
    while isinstance(node, tuple) and node:
        depth += 1
        node = node[0]
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
