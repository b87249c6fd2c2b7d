"""Dynamic closedness checking over a recorded event log.

The paper's canonical form is a claim about *which information flows
where and when*: a communication-closed protocol's causal structure is
exactly one deliver layer per round — every message sent in round
``r`` is consumed in round ``r`` and nowhere else.  The lockstep
engine (:meth:`repro.runtime.network.SynchronousNetwork.run_round`)
makes every run closed by construction; :func:`check_closedness`
reads a recorded log and confirms it, message by message, through
:func:`burst_edges` (which the Chrome trace export shares): every
delivered message respects its round bracket, deliveries precede the
receiver's state update on the logical clock, and no channel delivers
twice in one round.  The asynchronous reference schedule in the test
suite is what can break those properties, so the check is its oracle.

Everything here is offline analysis over already-recorded JSON
records; nothing touches wall time, and the logical clock
(``{run, round, step}``) is the only ordering used.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple


def burst_edges(
    send: Dict[str, Any], run_start: Dict[str, Any]
) -> Iterator[Tuple[int, int, bool]]:
    """``(receiver, bits, non_null)`` of every message of one ``send``
    record that landed at a correct receiver, in landing order.

    The correct receivers are the ids ``1..n`` of the run's
    ``run_start`` record that its ``faulty`` list does not name; a
    message to a faulty or nonexistent processor stays in the record
    but is no delivery.
    """
    n = int(run_start.get("n", 0))
    faulty = run_start.get("faulty", ())
    for receiver, bits, non_null, *_summary in send["messages"]:
        if 1 <= receiver <= n and receiver not in faulty:
            yield receiver, bits, non_null


def check_closedness(records: List[Dict[str, Any]]) -> List[str]:
    """Dynamic communication-closedness problems in a recorded log.

    The empty list certifies that every observed delivery respects the
    canonical form's round structure:

    - a ``send`` only occurs inside an open run and inside the
      round bracket (``round_start`` .. ``round_end``) it is stamped
      with — messages never leak across round boundaries;
    - within a round, every delivery to a processor precedes *that
      processor's* state update on the logical clock (the paper's
      send → receive → state-change phase order, tracked per
      receiver: under an asynchronous schedule a processor whose
      closed message set is complete legitimately changes state while
      late messages are still in flight to *other* processors — the
      round skew docs/runtime.md describes — but a message arriving at a
      processor after its own round-``r`` state change could not have
      been consumed in round ``r``, which is exactly a closedness
      violation);
    - no ``(sender, receiver)`` channel delivers twice in one round —
      one envelope per channel per round is exactly the canonical
      form's message discipline.
    """
    problems: List[str] = []
    run: Optional[str] = None
    run_start: Dict[str, Any] = {}
    open_round: Optional[int] = None
    state_changed: Set[int] = set()
    delivered: Set[Tuple[int, int]] = set()
    for index, record in enumerate(records):
        kind = record.get("kind")
        if kind == "run_start":
            run = str(record.get("run"))
            run_start = record
            open_round = None
        elif kind == "run_end":
            run = None
            open_round = None
        elif kind == "round_start":
            open_round = int(record["round"])
            state_changed = set()
            delivered = set()
        elif kind == "round_end":
            open_round = None
        elif kind == "send":
            round_number = int(record["round"])
            if run is None:
                problems.append(f"record {index}: send outside any run")
                continue
            if open_round is None:
                problems.append(
                    f"record {index}: run {run}: send in round "
                    f"{round_number} outside a round bracket"
                )
                continue
            if round_number != open_round:
                problems.append(
                    f"record {index}: run {run}: send stamped round "
                    f"{round_number} inside round {open_round} — not "
                    "communication-closed"
                )
            sender = int(record["sender"])
            for receiver, _bits, _non_null in burst_edges(record, run_start):
                if receiver in state_changed:
                    problems.append(
                        f"record {index}: run {run}: round {round_number}: "
                        f"deliver to {receiver} after its state update — "
                        "send/receive phase order violated"
                    )
                if (sender, receiver) in delivered:
                    problems.append(
                        f"record {index}: run {run}: round {round_number}: "
                        f"channel {sender}->{receiver} delivered twice"
                    )
                delivered.add((sender, receiver))
        elif kind == "state":
            if open_round is not None:
                state_changed.update(int(p) for p in record["processes"])
    return problems


__all__ = ["burst_edges", "check_closedness"]
