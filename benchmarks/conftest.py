"""Shared helpers for the benchmark/reproduction harness.

Every benchmark module regenerates one of the paper's artifacts
(DESIGN.md's experiment index) and

* prints the reproduction table (visible with ``pytest -s``),
* writes it under ``benchmarks/results/`` for EXPERIMENTS.md,
* asserts the *shape* claims (who wins, growth exponents, round
  guarantees) so regressions fail loudly,
* times a representative operation via pytest-benchmark.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a reproduction table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def eig_decision_work(n: int, t: int, faulty: int) -> dict:
    """One compact-BA run's EIG decision work on the interned path.

    Compact BA at ``k = 1`` with inputs ``p % 2`` and
    ``EquivocatingAdversary`` on processors ``1..faulty`` (none when
    ``faulty`` is 0), from empty shared stores so that every count is
    deterministic: the EIG tree's ``n^(t+1)`` leaves, its
    ``n!/(n-t-1)!`` distinct-label chains, the canonical nodes of
    processor ``n``'s FULL_STATE, and the correct processors'
    decisions split into memo hits and memo misses by the route each
    miss took (:func:`repro.fullinfo.decision.eig_byzantine_decision`).
    """
    import math

    from repro.adversary import EquivocatingAdversary
    from repro.arrays.store import InternedArray, clear_shared_stores
    from repro.arrays.value_array import count_leaves
    from repro.compact.byzantine_agreement import (
        run_compact_byzantine_agreement,
    )
    from repro.obs import Observer, observing
    from repro.types import SystemConfig

    config = SystemConfig(n=n, t=t)
    inputs = {p: p % 2 for p in config.process_ids}
    adversary = (
        EquivocatingAdversary(list(range(1, faulty + 1)), 0, 1)
        if faulty else None
    )
    clear_shared_stores()
    with observing(Observer(spans=False)) as observer:
        result = run_compact_byzantine_agreement(
            config, inputs, value_alphabet=[0, 1], k=1, adversary=adversary
        )
    counters = observer.registry.counters()
    full_state = result.processes[n].full_state()
    leaves = count_leaves(full_state)
    assert leaves == n ** (t + 1)
    nodes = set()
    stack = [full_state]
    while stack:  # the DAG's nodes, each once
        node = stack.pop()
        if type(node) is InternedArray and id(node) not in nodes:
            nodes.add(id(node))
            stack.extend(node)
    clear_shared_stores()

    hits = counters.get("eig.decision.hit", 0)
    misses = counters.get("eig.decision.miss", 0)
    descent = counters.get("eig.kernel.descent", 0)
    flat = counters.get("eig.kernel.flat", 0)
    decisions = set(result.decisions.values())
    assert len(decisions) == 1
    assert hits + misses == len(result.processes)
    return {
        "rounds": result.rounds,
        "tree leaves": leaves,
        "chains": math.perm(n, t + 1),
        "interned nodes": len(nodes),
        "walk": descent,
        "flat sweep": flat,
        # A miss neither route settled took the reference sweep (a
        # state with few chains, or the flat kernel's fallback).
        "reference sweep": misses - descent - flat,
        "memo hits": hits,
        "decision": decisions.pop(),
    }
