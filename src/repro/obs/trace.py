"""Causal DAG assembly and dynamic closedness checking.

The paper's canonical form is a claim about *which information flows
where and when*: a communication-closed protocol's causal structure is
exactly one deliver layer per round — every message sent in round
``r`` is consumed in round ``r`` and nowhere else.  This module turns
any recorded event log into that structure post hoc, reading each
``send`` record — one per sender per round — through
:func:`burst_edges`:

- :func:`build_dags` assembles one :class:`CausalDag` per recorded
  run, with a node per ``(process, round)`` state and an edge per
  delivered payload (bit-accounted) or per-process round transition;
- :func:`check_closedness` verifies the *dynamic* counterpart of
  protoflow's static FLOW verdict: every delivered edge respects its
  round bracket, deliveries precede the receiver's state update on
  the logical clock, and no channel delivers twice in one round.

Everything here is offline analysis over already-recorded JSON
records; nothing touches wall time, and the logical clock
(``{run, round, step}``) is the only ordering used.

``repro.statics.crosscheck`` replays the fuzz corpus under an event
log and requires :func:`check_closedness` to agree with the
committed certificate catalog (``tools/protoflow_certificates.json``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: A causal node: ``(process id, round)``.  Round 0 is the initial
#: state; a deliver in round ``r`` links the sender's round ``r - 1``
#: state to the receiver's round ``r`` state.
Node = Tuple[int, int]


@dataclasses.dataclass(frozen=True)
class CausalEdge:
    """One edge of the causal DAG.

    ``kind`` is ``"deliver"`` (a payload crossed the network) or
    ``"local"`` (a process carried its own state into the next round).
    ``bits`` is the information cost of the edge — the per-edge
    accounting the canonical form's communication bound is about; local
    edges cost nothing by definition.
    """

    kind: str
    src: Node
    dst: Node
    bits: int
    non_null: bool
    faulty: bool
    step: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "src": list(self.src),
            "dst": list(self.dst),
            "bits": self.bits,
            "non_null": self.non_null,
            "faulty": self.faulty,
            "step": self.step,
        }


@dataclasses.dataclass
class CausalDag:
    """The causal structure of one recorded run."""

    run: str
    n: int
    edges: List[CausalEdge] = dataclasses.field(default_factory=list)
    rounds: int = 0
    decisions: Dict[int, Any] = dataclasses.field(default_factory=dict)

    def deliver_edges(self) -> List[CausalEdge]:
        return [edge for edge in self.edges if edge.kind == "deliver"]

    def channel_bits(self) -> Dict[Tuple[int, int], int]:
        """Total bits per ``(sender, receiver)`` channel."""
        totals: Dict[Tuple[int, int], int] = {}
        for edge in self.deliver_edges():
            channel = (edge.src[0], edge.dst[0])
            totals[channel] = totals.get(channel, 0) + edge.bits
        return totals

    def round_bits(self) -> Dict[int, int]:
        """Total delivered bits per round."""
        totals: Dict[int, int] = {}
        for edge in self.deliver_edges():
            round_number = edge.dst[1]
            totals[round_number] = totals.get(round_number, 0) + edge.bits
        return totals

    def nodes(self) -> List[Node]:
        """Every node touched by an edge, sorted."""
        seen: Set[Node] = set()
        for edge in self.edges:
            seen.add(edge.src)
            seen.add(edge.dst)
        return sorted(seen)

    def to_json(self) -> Dict[str, Any]:
        return {
            "run": self.run,
            "n": self.n,
            "rounds": self.rounds,
            "edges": [edge.to_json() for edge in self.edges],
            "decisions": {
                str(process): value
                for process, value in sorted(self.decisions.items())
            },
            "channel_bits": {
                f"{sender}->{receiver}": bits
                for (sender, receiver), bits in sorted(
                    self.channel_bits().items()
                )
            },
            "round_bits": {
                str(round_number): bits
                for round_number, bits in sorted(self.round_bits().items())
            },
        }


def burst_edges(
    send: Dict[str, Any], run_start: Dict[str, Any]
) -> Iterator[Tuple[int, int, bool]]:
    """``(receiver, bits, non_null)`` of every message of one ``send``
    record that landed at a correct receiver, in landing order.

    The correct receivers are the ids ``1..n`` of the run's
    ``run_start`` record that its ``faulty`` list does not name; a
    message to a faulty or nonexistent processor stays in the record
    but is no edge of the causal DAG.
    """
    n = int(run_start.get("n", 0))
    faulty = run_start.get("faulty", ())
    for receiver, bits, non_null, *_summary in send["messages"]:
        if 1 <= receiver <= n and receiver not in faulty:
            yield receiver, bits, non_null


def build_dags(records: List[Dict[str, Any]]) -> List[CausalDag]:
    """Assemble one causal DAG per recorded run.

    Each message a ``send`` record in round ``r`` lands at a correct
    receiver becomes a deliver edge ``(sender, r - 1) -> (receiver,
    r)``; the first ``state`` record a process emits in round ``r``
    becomes a local edge ``(process, r - 1) -> (process, r)``.
    """
    dags: List[CausalDag] = []
    current: Optional[CausalDag] = None
    run_start: Dict[str, Any] = {}
    local_seen: Set[Node] = set()
    for record in records:
        kind = record.get("kind")
        if kind == "run_start":
            current = CausalDag(
                run=str(record.get("run")), n=int(record.get("n", 0))
            )
            run_start = record
            local_seen = set()
            dags.append(current)
        elif current is None:
            continue
        elif kind == "send":
            round_number = int(record["round"])
            current.rounds = max(current.rounds, round_number)
            sender = int(record["sender"])
            for receiver, bits, non_null in burst_edges(record, run_start):
                current.edges.append(
                    CausalEdge(
                        kind="deliver",
                        src=(sender, round_number - 1),
                        dst=(receiver, round_number),
                        bits=bits,
                        non_null=non_null,
                        faulty=bool(record["faulty"]),
                        step=int(record["step"]),
                    )
                )
        elif kind == "state":
            round_number = int(record["round"])
            process = int(record["process"])
            node = (process, round_number)
            if node not in local_seen:
                local_seen.add(node)
                current.rounds = max(current.rounds, round_number)
                current.edges.append(
                    CausalEdge(
                        kind="local",
                        src=(process, round_number - 1),
                        dst=node,
                        bits=0,
                        non_null=False,
                        faulty=False,
                        step=int(record["step"]),
                    )
                )
        elif kind == "decide":
            current.decisions[int(record["process"])] = record.get("value")
        elif kind == "run_end":
            current.rounds = max(current.rounds, int(record.get("rounds", 0)))
            current = None
    return dags


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

    This is the dynamic counterpart of protoflow's static FLOW
    verdict: static analysis certifies the protocol *text* closed,
    this certifies a particular *execution* closed.
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
                state_changed.add(int(record["process"]))
    return problems


__all__ = [
    "CausalDag",
    "CausalEdge",
    "Node",
    "build_dags",
    "burst_edges",
    "check_closedness",
]
