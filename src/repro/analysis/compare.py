"""The Section 5.6 comparison: rounds and bits across protocols.

"We compare the cost (i.e., rounds and message bits) of our Byzantine
agreement protocol ... with the cost of the protocol of Srikanth and
Toueg ... If ``eps = 1`` our protocol uses ``2t + 2`` rounds ...  We
find that our protocol uses somewhat more message bits, but it allows
us to greatly reduce the number of rounds."

:func:`comparison_table` produces the analytic rows;
:func:`measured_comparison` additionally *runs* each protocol under a
common adversary and reports observed rounds and metered bits next to
the analytic predictions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.agreement.lower_bounds import min_rounds_for_agreement
from repro.analysis.complexity import (
    compact_bits_estimate,
    eig_total_bits,
    st_bits_estimate,
)
from repro.compact.byzantine_agreement import compact_ba_rounds
from repro.core.rounds import k_for_epsilon
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig


def comparison_table(
    t: int,
    value_alphabet_size: int = 2,
    epsilons: Sequence[float] = (1.0, 0.5),
) -> List[Dict[str, Any]]:
    """Analytic Section 5.6 rows for ``n = 3t + 1``.

    Bits for the compact and ST protocols are the paper's O(.) bounds
    with constants 1 (shape only); bits for the exponential baseline
    are exact for our encoding.
    """
    n = 3 * t + 1
    rows: List[Dict[str, Any]] = [
        {
            "protocol": "lower bound",
            "n": n,
            "rounds": min_rounds_for_agreement(t),
            "bits_model": "-",
        },
        {
            "protocol": "exponential EIG (Lamport et al.)",
            "n": n,
            "rounds": t + 1,
            "bits_model": eig_total_bits(n, t, value_alphabet_size),
        },
        {
            "protocol": "Srikanth-Toueg (paper-quoted)",
            "n": n,
            "rounds": 2 * t + 1,
            "bits_model": st_bits_estimate(n, t, value_alphabet_size),
        },
    ]
    for epsilon in epsilons:
        k = k_for_epsilon(epsilon)
        rows.append(
            {
                "protocol": f"compact (eps={epsilon}, k={k})",
                "n": n,
                "rounds": compact_ba_rounds(t, k),
                "bits_model": compact_bits_estimate(
                    n, t, k, value_alphabet_size
                ),
            }
        )
    return rows


def measured_comparison(
    t: int,
    adversary_maker=None,
    epsilons: Sequence[float] = (1.0, 0.5),
    seed: int = 0,
    extended: bool = False,
) -> List[Dict[str, Any]]:
    """Run every protocol on ``n = 3t + 1`` and report measured costs.

    Each row is one catalogued protocol
    (:mod:`repro.fuzz.protocols`), run under its declared round bound
    and its paper-exact bit meter.  ``adversary_maker(faulty_ids)``
    builds a fresh adversary per run (``None`` runs fault-free).
    Inputs alternate over ``{0, 1}`` so validity does not trivialise
    the executions.  ``extended`` adds rows beyond the paper's own
    comparison: Phase King and the authenticated Dolev–Strong protocol
    (the latter fault-free — its adversaries need oracle wiring the
    generic makers don't have).
    """
    from repro.fuzz.protocols import compact_ba_spec, get_spec

    config = SystemConfig(n=3 * t + 1, t=t)
    inputs = {process_id: process_id % 2 for process_id in config.process_ids}
    faulty = list(range(1, t + 1))
    specs = [
        ("exponential EIG", get_spec("eig")),
        ("Srikanth-Toueg style", get_spec("srikanth-toueg")),
    ] + [
        (f"compact (eps={epsilon})", compact_ba_spec(k_for_epsilon(epsilon)))
        for epsilon in epsilons
    ]
    if extended:
        specs += [
            ("Phase King (binary)", get_spec("phase-king")),
            (
                "Dolev-Strong (authenticated, fault-free run)",
                get_spec("dolev-strong"),
            ),
        ]
    rows: List[Dict[str, Any]] = []
    for label, spec in specs:
        adversary = None
        if adversary_maker is not None and not spec.authenticated:
            adversary = adversary_maker(faulty)
        result = run_protocol(
            spec.build(config),
            config,
            inputs,
            adversary=adversary,
            seed=seed,
            **spec.engine_arguments(config),
        )
        rows.append(
            {
                "protocol": label,
                "rounds": result.rounds,
                "bits": result.metrics.total_bits,
                "decisions": sorted(map(repr, result.decided_values())),
            }
        )
    return rows
