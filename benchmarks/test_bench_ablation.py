"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **Null-message coding (Section 4)** — with the convention, avalanche
  traffic is bounded by value *changes* (at most 3 per processor);
  without it, cost grows linearly with the number of rounds the
  instances stay alive.  The gap is the convention's whole point.
* **Decision work on the interned state (the paper's open question)**
  — FULL_STATE stands for an ``n^(t+1)``-leaf tree but is a DAG of a
  handful of canonical nodes; the EIG rule on it is memoised across
  correct processors, settled by the dominant-child walk or, where
  the walk stops, swept over the ``n!/(n-t-1)!`` distinct-label
  chains.
"""

from repro.adversary import VoteSplitterAdversary
from repro.analysis.report import format_table
from repro.arrays.encoding import bits_for_alphabet
from repro.avalanche.coding import NullEncoder, is_null_message
from repro.avalanche.protocol import avalanche_factory
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig, is_bottom

from conftest import eig_decision_work, publish


def coding_ablation_rows():
    rows = []
    value_bits = bits_for_alphabet(2)
    for rounds in (4, 8, 16):
        config = SystemConfig(n=7, t=2)
        inputs = {p: ("v" if p % 3 else "w") for p in config.process_ids}
        result = run_protocol(
            avalanche_factory(),
            config,
            inputs,
            adversary=VoteSplitterAdversary([1, 2]),
            run_full_rounds=rounds,
            record_trace=True,
        )
        with_coding = 0
        without_coding = 0
        for process_id in result.processes:
            stream = [
                envelope.payload
                for envelope in result.trace.messages_from(process_id)
                if envelope.receiver == process_id
            ]
            encoder = NullEncoder()
            for item in stream:
                encoded = encoder.encode(item)
                if not is_bottom(item):
                    without_coding += value_bits * config.n
                if not is_null_message(encoded) and not is_bottom(encoded):
                    with_coding += value_bits * config.n
        rows.append(
            {
                "rounds run": rounds,
                "bits with coding": with_coding,
                "bits without": without_coding,
                "saving": f"{without_coding / max(1, with_coding):.1f}x",
            }
        )
    # The coded cost must be round-count independent; the uncoded cost
    # must keep growing.
    assert rows[0]["bits with coding"] == rows[2]["bits with coding"]
    assert rows[2]["bits without"] > rows[0]["bits without"]
    return rows


def decision_rows():
    rows = []
    for label, faulty in (("fault-free", 0), ("EquivocatingAdversary", 2)):
        work = eig_decision_work(7, 2, faulty)
        # The interned state is a few nodes, the tree it stands for
        # 343 leaves; the sweep, where it runs, reads 210 chains.
        assert work["interned nodes"] < work["chains"] < work["tree leaves"]
        rows.append({"run (n=7, t=2)": label, **work})
    return rows


def test_ablations(benchmark):
    coding_rows = coding_ablation_rows()
    decision = benchmark(decision_rows)
    publish(
        "ablation",
        format_table(
            coding_rows,
            title="A1 — null-message coding: bounded vs linear avalanche cost",
        )
        + "\n\n"
        + format_table(
            decision,
            title="A2 — EIG decision work on the interned FULL_STATE",
        ),
    )
