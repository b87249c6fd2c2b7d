"""Firing squad drill: simultaneous action from scattered stimuli.

The firing squad problem (named in the paper's introduction) asks a
Byzantine-tolerant system to act *in unison*: GO stimuli reach
different nodes in different rounds — or only some nodes — yet every
correct node must fire in the very same round, and never without a
genuine stimulus.  Think coordinated failover: individual replicas
notice the primary is gone at different times, but the switchover must
be one atomic instant.

Run:  python examples/firing_squad_drill.py
"""

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.agreement.firing_squad import fire_deadline, firing_squad_factory
from repro.analysis.report import format_table
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig


def main() -> None:
    config = SystemConfig(n=7, t=2)
    rows = []

    scenarios = [
        (
            "staggered GOs (rounds 1..3), silent faults",
            {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: BOTTOM, 7: BOTTOM},
            SilentAdversary([6, 7]),
        ),
        (
            "everyone gets GO at round 2, equivocating faults",
            {p: 2 for p in config.process_ids},
            EquivocatingAdversary([3, 6], 0, 1),
        ),
        (
            "no stimulus at all, noisy faults (must NOT fire)",
            {p: BOTTOM for p in config.process_ids},
            EquivocatingAdversary([3, 6], 0, 1),
        ),
    ]

    for description, inputs, adversary in scenarios:
        result = run_protocol(
            firing_squad_factory(),
            config,
            inputs,
            adversary=adversary,
            run_full_rounds=10,
        )
        fire_rounds = {
            r
            for p, r in result.decision_rounds.items()
            if result.decisions[p] == "FIRE"
        }
        fired = bool(fire_rounds)
        rows.append(
            {
                "scenario": description,
                "fired": "yes" if fired else "no",
                "fire round": fire_rounds.pop() if len(fire_rounds) == 1 else (
                    "SPLIT!" if fire_rounds else "-"
                ),
            }
        )

    print(format_table(rows, title="Byzantine firing squad (n=7, t=2)"))
    print()
    go_round = 3
    print(
        f"Guarantee: unanimous GO by round {go_round} fires by round "
        f"{fire_deadline(go_round, config.t)}; firing is always "
        f"simultaneous, and silence is guaranteed when no correct node "
        f"was stimulated."
    )


if __name__ == "__main__":
    main()
