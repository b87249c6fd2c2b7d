"""Experiment E1 — avalanche agreement costs (Section 4).

Paper claims reproduced:

* the consensus condition: unanimous executions decide in round 2
  (round 1 for the fast variant),
* the coding convention: "each correct processor sends at most 3
  non-null messages in any execution", giving O(n^2 log |V|) bits.
"""

from repro.adversary import EquivocatingAdversary, VoteSplitterAdversary
from repro.analysis.report import format_table
from repro.arrays.encoding import bits_for_alphabet
from repro.avalanche.coding import NullEncoder, is_null_message
from repro.avalanche.fast import fast_thresholds
from repro.avalanche.protocol import avalanche_factory
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig, is_bottom

from conftest import publish


def run_with_coding(config, inputs, adversary, rounds, thresholds=None, seed=0):
    """Run Protocol 2 and recount its traffic under the null coding."""
    result = run_protocol(
        avalanche_factory(thresholds=thresholds),
        config,
        inputs,
        adversary=adversary,
        run_full_rounds=rounds,
        record_trace=True,
        seed=seed,
    )
    value_bits = bits_for_alphabet(2)
    non_null = {}
    coded_bits = 0
    for process_id in result.processes:
        stream = [
            envelope.payload
            for envelope in result.trace.messages_from(process_id)
            if envelope.receiver == process_id
        ]
        encoder = NullEncoder()
        count = 0
        for item in stream:
            encoded = encoder.encode(item)
            if not is_null_message(encoded) and not is_bottom(encoded):
                count += 1
                coded_bits += value_bits * config.n  # one broadcast
        non_null[process_id] = count
    return result, non_null, coded_bits


def test_avalanche_costs(benchmark):
    rows = []
    for t in (1, 2, 3):
        config = SystemConfig(n=3 * t + 1, t=t)
        inputs = {p: ("v" if p % 3 else "w") for p in config.process_ids}
        faulty = list(range(1, t + 1))
        result, non_null, coded_bits = run_with_coding(
            config, inputs, VoteSplitterAdversary(faulty), rounds=10
        )
        worst = max(non_null.values())
        assert worst <= 3, "coding-convention bound violated"
        # O(n^2 log |V|) with the constant made explicit: at most 3
        # broadcasts of one value each.
        assert coded_bits <= 3 * config.n**2 * bits_for_alphabet(2)
        rows.append(
            {
                "n": config.n,
                "t": t,
                "adversary": "vote-splitter",
                "max non-null msgs (paper: <=3)": worst,
                "coded bits": coded_bits,
                "bound 3*n^2*log|V|": 3 * config.n**2 * bits_for_alphabet(2),
            }
        )

    # Consensus-condition timing, standard and fast variants.
    timing_rows = []
    config = SystemConfig(n=7, t=2)
    inputs = {p: "v" for p in config.process_ids}
    result = run_protocol(
        avalanche_factory(),
        config,
        inputs,
        adversary=EquivocatingAdversary([3, 6], "v", "w"),
        run_full_rounds=4,
    )
    decide_round = max(result.decision_rounds.values())
    assert decide_round <= 2
    timing_rows.append(
        {"variant": "standard (n=3t+1)", "paper deadline": 2,
         "measured worst decision round": decide_round}
    )

    config9 = SystemConfig(n=9, t=2)
    inputs9 = {p: "v" for p in config9.process_ids}
    result9 = run_protocol(
        avalanche_factory(thresholds=fast_thresholds(config9)),
        config9,
        inputs9,
        run_full_rounds=3,
    )
    fast_round = max(result9.decision_rounds.values())
    assert fast_round == 1
    timing_rows.append(
        {"variant": "fast (n=4t+1)", "paper deadline": 1,
         "measured worst decision round": fast_round}
    )

    publish(
        "avalanche",
        format_table(rows, title="E1a — avalanche coding-convention costs")
        + "\n\n"
        + format_table(timing_rows, title="E1b — consensus-condition deadlines"),
    )

    config = SystemConfig(n=7, t=2)
    inputs = {p: ("v" if p % 3 else "w") for p in config.process_ids}
    benchmark(
        run_protocol,
        avalanche_factory(),
        config,
        inputs,
        adversary=VoteSplitterAdversary([1, 2]),
        run_full_rounds=8,
    )
