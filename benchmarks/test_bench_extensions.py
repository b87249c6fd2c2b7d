"""Beyond-paper extensions, measured (recorded in EXPERIMENTS.md).

Not reproductions of paper artifacts — quantified evidence for the
repository's own additions:

* interactive consistency through the canonical form (a third
  application of the transformation),
* the Byzantine firing squad built from staggered simultaneous
  agreements,
* the polynomial-space lazy decision path at the suite's largest
  configuration,
* the authenticated-model compact variant reaching the ``t + 1``
  round optimum with zero overhead.
"""

import time

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.agreement.firing_squad import fire_deadline, firing_squad_factory
from repro.analysis.report import format_table
from repro.compact.byzantine_agreement import compact_ba_rounds
from repro.compact.lazy_decision import lazy_compact_ba_factory
from repro.compact.payload import compact_sizer, payload_is_null
from repro.compact.protocol import compact_factory
from repro.core.rounds import BlockSchedule
from repro.fullinfo.interactive import make_interactive_consistency_rule
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig

from conftest import publish


def interactive_consistency_rows():
    rows = []
    for n, t in ((4, 1), (7, 2)):
        config = SystemConfig(n=n, t=t)
        inputs = {p: p % 3 for p in config.process_ids}
        rule = make_interactive_consistency_rule(
            t, default=0, alphabet=[0, 1, 2]
        )
        deadline = BlockSchedule(2).actual_rounds_for(t + 1)
        result = run_protocol(
            compact_factory(
                k=2,
                value_alphabet=[0, 1, 2],
                decision_rule=rule,
                horizon=t + 1,
            ),
            config,
            inputs,
            adversary=EquivocatingAdversary([n], 0, 2),
            max_rounds=deadline + 1,
            sizer=compact_sizer(config, 3),
            is_null=payload_is_null,
        )
        vectors = set(result.decisions.values())
        assert len(vectors) == 1
        vector = next(iter(vectors))
        correct_components_right = all(
            vector[p - 1] == inputs[p] for p in result.processes
        )
        assert correct_components_right
        rows.append(
            {
                "n": n,
                "t": t,
                "agreed vector": vector,
                "rounds": result.rounds,
                "bits": result.metrics.total_bits,
            }
        )
    return rows


def firing_squad_rows():
    config = SystemConfig(n=7, t=2)
    rows = []
    for label, inputs in (
        ("staggered GOs 1..3", {p: (p % 3) + 1 for p in config.process_ids}),
        ("no stimulus", {p: BOTTOM for p in config.process_ids}),
    ):
        result = run_protocol(
            firing_squad_factory(),
            config,
            inputs,
            adversary=SilentAdversary([6, 7]),
            run_full_rounds=10,
        )
        fire_rounds = {
            r
            for p, r in result.decision_rounds.items()
            if result.decisions[p] == "FIRE"
        }
        rows.append(
            {
                "scenario": label,
                "fired": "yes" if fire_rounds else "no",
                "fire rounds": sorted(fire_rounds) or "-",
                "deadline": fire_deadline(3, config.t),
            }
        )
    assert rows[0]["fired"] == "yes" and len(rows[0]["fire rounds"]) == 1
    assert rows[1]["fired"] == "no"
    return rows


def lazy_rows():
    config = SystemConfig(n=10, t=3)
    inputs = {p: p % 2 for p in config.process_ids}
    start = time.perf_counter()
    result = run_protocol(
        lazy_compact_ba_factory([0, 1], default=0, k=1),
        config,
        inputs,
        adversary=EquivocatingAdversary([1, 2, 3], 0, 1),
        max_rounds=compact_ba_rounds(3, 1) + 1,
    )
    elapsed = time.perf_counter() - start
    assert len(result.decided_values()) == 1
    # The claim is "sub-second"; the cell states the claim, not the
    # timing, so regenerating the table leaves it unchanged.
    assert elapsed < 1.0, elapsed
    return [
        {
            "n": config.n,
            "t": config.t,
            "rounds": result.rounds,
            "distinct chains resolved": 10 * 9 * 8 * 7,
            "full tree (never built)": 10**4,
            "wall time": "< 1 s",
        }
    ]


def authenticated_rows():
    from repro.compact.authenticated_variant import (
        auth_compact_ba_factory,
        auth_sizer,
    )
    from repro.compact.byzantine_agreement import (
        compact_ba_rounds,
        run_compact_byzantine_agreement,
    )
    from repro.runtime.crypto import SignatureOracle

    rows = []
    for t in (1, 2):
        n = 3 * t + 1
        config = SystemConfig(n=n, t=t)
        inputs = {p: p % 2 for p in config.process_ids}
        plain = run_compact_byzantine_agreement(
            config, inputs, value_alphabet=[0, 1], k=1,
            adversary=EquivocatingAdversary(list(range(1, t + 1)), 0, 1),
        )
        authenticated = run_protocol(
            auth_compact_ba_factory(config, [0, 1], SignatureOracle(), k=1),
            config,
            inputs,
            adversary=EquivocatingAdversary(list(range(1, t + 1)), 0, 1),
            max_rounds=t + 2,
            sizer=auth_sizer(config, 2),
        )
        assert authenticated.rounds == t + 1
        assert len(authenticated.decided_values()) == 1
        rows.append(
            {
                "n": n,
                "t": t,
                "rounds non-crypto (k=1)": plain.rounds,
                "rounds authenticated": authenticated.rounds,
                "t+1 lower bound": t + 1,
                "bits authenticated": authenticated.metrics.total_bits,
            }
        )
    return rows


def test_extensions(benchmark):
    ic = interactive_consistency_rows()
    squad = firing_squad_rows()
    auth = authenticated_rows()
    lazy = benchmark(lazy_rows)
    publish(
        "extensions",
        format_table(
            ic, title="X1 — interactive consistency via the canonical form"
        )
        + "\n\n"
        + format_table(squad, title="X2 — Byzantine firing squad")
        + "\n\n"
        + format_table(
            lazy, title="X3 — polynomial-space decisions at n = 10, t = 3"
        )
        + "\n\n"
        + format_table(
            auth,
            title="X4 — authenticated model: t + 1 rounds, no overhead",
        ),
    )
