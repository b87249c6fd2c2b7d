"""Causal tracing: send bursts, DAG assembly, dynamic closedness."""

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.obs import EventLog, Observer, observing, status_from_records
from repro.obs.trace import burst_edges, check_closedness

from tests.obs.causal_dag import build_dags


def traced_compact_ba(config4, adversary, result=None):
    log = EventLog()
    with observing(Observer(events=log)):
        outcome = run_compact_byzantine_agreement(
            config4,
            {1: 1, 2: 0, 3: 1, 4: 0},
            value_alphabet=[0, 1],
            k=2,
            adversary=adversary,
        )
    if result is not None:
        result.append(outcome)
    return log.records


class TestDeliverEvents:
    def test_traced_records_validate(self, config4):
        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        assert status_from_records(records)["degraded"] == []
        assert {r["faulty"] for r in records if r["kind"] == "send"} == {
            False, True,
        }

    def test_trace_off_means_no_deliver_records(self, config4):
        # There is no trace mode: ``trace=True`` writes the same log.
        logs = []
        for trace in (False, True):
            log = EventLog()
            with observing(Observer(events=log, trace=trace, spans=False)):
                run_compact_byzantine_agreement(
                    config4, {1: 1, 2: 0, 3: 1, 4: 0},
                    value_alphabet=[0, 1], k=2,
                    adversary=EquivocatingAdversary([4], 0, 1),
                )
            logs.append(log.records)
        assert logs[0] == logs[1]
        assert not any(r["kind"] == "deliver" for r in logs[0])

    def test_correct_deliver_bits_match_send_events(self, config4):
        """A correct sender's entries carry the meter's measurement."""
        results = []
        records = traced_compact_ba(
            config4, EquivocatingAdversary([4], 0, 1), results
        )
        correct_sends = [
            r for r in records if r["kind"] == "send" and not r["faulty"]
        ]
        assert sum(
            bits for record in correct_sends
            for _receiver, bits, _non_null in record["messages"]
        ) == results[0].metrics.total_bits
        entries = {
            (r["round"], r["sender"], receiver): bits
            for r in correct_sends
            for receiver, bits, _non_null in r["messages"]
        }
        correct_delivers = [
            edge for edge in build_dags(records)[0].deliver_edges()
            if not edge.faulty
        ]
        assert correct_delivers
        for edge in correct_delivers:
            # deliveries to faulty receivers are no edges, so every
            # correct edge has a metered entry
            key = (edge.dst[1], edge.src[0], edge.dst[0])
            assert entries[key] == edge.bits
        assert all(edge.dst[0] != 4 for edge in correct_delivers)

    def test_faulty_deliveries_are_marked(self, config4):
        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        faulty = [
            edge for edge in build_dags(records)[0].deliver_edges()
            if edge.faulty
        ]
        assert faulty
        assert all(edge.src[0] == 4 for edge in faulty)


class TestCausalDag:
    def test_one_dag_per_run_with_edges(self, config4):
        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        dags = build_dags(records)
        assert len(dags) == 1
        dag = dags[0]
        assert dag.n == 4
        assert dag.rounds >= 1
        assert dag.deliver_edges()
        assert dag.decisions

    def test_deliver_edge_spans_one_round(self, config4):
        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        for edge in build_dags(records)[0].deliver_edges():
            assert edge.dst[1] == edge.src[1] + 1

    def test_bit_accounting_sums_per_round_and_channel(self, config4):
        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        dag = build_dags(records)[0]
        total = sum(edge.bits for edge in dag.deliver_edges())
        assert sum(dag.round_bits().values()) == total
        assert sum(dag.channel_bits().values()) == total

    def test_local_edges_connect_consecutive_states(self, config4):
        records = traced_compact_ba(config4, SilentAdversary([4]))
        dag = build_dags(records)[0]
        locals_ = [e for e in dag.edges if e.kind == "local"]
        assert locals_
        for edge in locals_:
            assert edge.src[0] == edge.dst[0]
            assert edge.dst[1] == edge.src[1] + 1
            assert edge.bits == 0

    def test_to_json_round_trips_through_repr(self, config4):
        import json

        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        payload = build_dags(records)[0].to_json()
        assert json.loads(json.dumps(payload)) == payload


class TestClosednessChecker:
    def test_real_execution_is_closed(self, config4):
        records = traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))
        assert check_closedness(records) == []

    def _closed_log(self, config4):
        return traced_compact_ba(config4, EquivocatingAdversary([4], 0, 1))

    def test_cross_round_delivery_is_flagged(self, config4):
        records = [dict(r) for r in self._closed_log(config4)]
        send = next(r for r in records if r["kind"] == "send")
        send["round"] = send["round"] + 1
        problems = check_closedness(records)
        assert any("communication-closed" in p for p in problems)

    def test_delivery_after_state_update_is_flagged(self, config4):
        records = [dict(r) for r in self._closed_log(config4)]
        # move the first send record after the round's last state
        index = next(
            i for i, r in enumerate(records) if r["kind"] == "send"
        )
        send = records.pop(index)
        state_index = max(
            i for i, r in enumerate(records)
            if r["kind"] == "state" and r["round"] == send["round"]
        )
        records.insert(state_index + 1, send)
        problems = check_closedness(records)
        assert any("phase order violated" in p for p in problems)

    def test_delivery_after_an_earlier_state_record_is_flagged(self, config4):
        """A ``state`` record lists processes.  Split a round's record in
        two and move a ``send`` between the halves: it is flagged for
        the receiver the first half already listed, and for no other."""
        records = [dict(r) for r in self._closed_log(config4)]
        state_index = next(
            i for i, r in enumerate(records) if r["kind"] == "state"
        )
        state = records[state_index]
        first, *rest = state["processes"]
        assert rest
        send_index = max(
            i for i, r in enumerate(records[:state_index])
            if r["kind"] == "send" and r["round"] == state["round"]
        )
        send = records.pop(send_index)
        assert first in [entry[0] for entry in send["messages"]]
        records[state_index - 1:state_index] = [
            dict(state, processes=[first]), send, dict(state, processes=rest),
        ]
        problems = check_closedness(records)
        assert len(problems) == 1
        assert f"deliver to {first} after its state update" in problems[0]

    def test_duplicate_channel_delivery_is_flagged(self, config4):
        records = [dict(r) for r in self._closed_log(config4)]
        index = next(
            i for i, r in enumerate(records) if r["kind"] == "send"
        )
        records.insert(index, dict(records[index]))
        problems = check_closedness(records)
        assert any("delivered twice" in p for p in problems)

    def test_delivery_outside_round_bracket_is_flagged(self):
        records = [
            {"v": 2, "kind": "run_start", "run": "r1", "round": 0,
             "step": 1, "n": 4, "t": 1, "seed": 0, "adversary": "X",
             "faulty": []},
            {"v": 2, "kind": "send", "run": "r1", "round": 1,
             "step": 2, "sender": 1, "faulty": False,
             "messages": [[2, 8, True]]},
        ]
        problems = check_closedness(records)
        assert any("outside a round bracket" in p for p in problems)

    def test_delivery_outside_any_run_is_flagged(self):
        records = [
            {"v": 2, "kind": "send", "run": None, "round": 1,
             "step": 1, "sender": 1, "faulty": False,
             "messages": [[2, 8, True]]},
        ]
        assert any(
            "outside any run" in p for p in check_closedness(records)
        )


class TestBurstEdges:
    RUN_START = {"kind": "run_start", "n": 4, "faulty": [3]}

    def test_only_correct_receivers_are_edges(self):
        send = {"kind": "send", "sender": 3, "faulty": True, "messages": [
            [1, 8, True, "0"], [3, 8, True, "0"], [4, 9, True, "1"],
            [7, 8, True, "1"],
        ]}
        assert list(burst_edges(send, self.RUN_START)) == [
            (1, 8, True), (4, 9, True),
        ]

    def test_landing_order_is_kept(self):
        send = {"kind": "send", "sender": 1, "faulty": False, "messages": [
            [4, 2, False], [2, 5, True], [1, 5, True],
        ]}
        assert list(burst_edges(send, self.RUN_START)) == [
            (4, 2, False), (2, 5, True), (1, 5, True),
        ]
