"""Causal DAG assembly over a recorded event log (a test oracle).

One :class:`CausalDag` per recorded run: a node per ``(process,
round)`` state and an edge per delivered payload (bit-accounted) or
per-process round transition.  Tests read it to check that a log's
deliveries, bits and decisions line up; the library's own reader of
the same ``send`` records is :func:`repro.obs.trace.burst_edges`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.trace import burst_edges

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
