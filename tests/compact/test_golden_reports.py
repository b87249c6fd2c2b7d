"""Compact BA end to end: nothing observable moved, against two oracles.

Making Protocol 3's rounds delta-driven (one CORE gate, store-shared
expansions, batches that re-tally only what changed) must be invisible
in every report.  Two checks per grid, under the lockstep scheduler and
the async one, over the six-adversary gallery *and* the four
compact-aware attackers (which do send real votes and stale or forged
COREs):

* the whole pickled ``SweepReport`` equals, byte for byte, the one the
  same code produces with the dense ``ReferenceAgreementBatch`` oracle
  swapped in for ``AgreementBatch``;
* a digest of every cell's decisions, decision rounds, rounds, metered
  bits and message counts equals the one recorded at the parent of that
  PR (where the pickled reports themselves were also compared, sha for
  sha; a pickle's bytes are not stable across interpreter versions, so
  it is the JSON projection that is pinned here).

The fast variant (``overhead=1``) needs ``n >= 4t + 1``, hence its own
system sizes.
"""

import hashlib
import json
import pickle

import pytest

import repro.compact.protocol as compact_protocol
from repro.adversary.compact_attacks import (
    AvalancheEquivocator,
    ForgedIndexAdversary,
    SpliceAdversary,
    StaleCoreAdversary,
)
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate
from repro.types import SystemConfig
from tests.compact.reference_agreement_batch import ReferenceAgreementBatch

MAKERS = standard_adversary_makers() + [
    ("stale-core", StaleCoreAdversary),
    ("forged-index", ForgedIndexAdversary),
    ("splice", SpliceAdversary),
    ("avalanche-equivocator", AvalancheEquivocator),
]

#: ``(n, t, overhead, k)`` -> digest of the report's projection, the
#: same under both schedulers, recorded at the parent commit.
GOLDEN = {
    (7, 2, 2, 1): "ea430db98f73ba242023ad5e97db5530963a8696c5595c7905f217ac04c5d290",
    (10, 3, 2, 1): "d046ee45ce1c499eb5ca1f6c6c9edd0a2c34980f9923db762a584f0b7cea4d31",
    (7, 2, 2, 2): "9675bc0efd960cce21f2fc90c4e010f0c47026a56d7f421e4c7dfe4fd222fc18",
    (9, 2, 1, 1): "93a57d8e894ed1b07cb0e915425aecb72b2ded11dd82b43e23866fcfb2c2b514",
    (9, 2, 1, 2): "3bf62e56a934d436bf280e590e318685f559f932387ae6d65b1bd34afe2f682e",
}


def run_grid(grid, scheduler):
    n, t, overhead, k = grid
    config = SystemConfig(n=n, t=t)
    return sweep(
        compact_ba_factory(config, [0, 1], default=0, k=k, overhead=overhead),
        config,
        [{p: (p + shift) % 2 for p in config.process_ids} for shift in range(2)],
        [tuple(range(1, t + 1)), tuple(range(n - t + 1, n + 1))],
        MAKERS,
        seeds=(1701, 1702),
        predicate=byzantine_agreement_predicate(),
        max_rounds=compact_ba_rounds(t, k, overhead) + 1,
        sizer=compact_sizer(config, 2),
        is_null=payload_is_null,
        workers=1,
        scheduler=scheduler,
        cache=False,
    )


def projection(report):
    cells = [
        {
            "adversary": outcome.adversary_name,
            "faulty": list(outcome.faulty),
            "seed": outcome.seed,
            "holds": outcome.predicate_holds,
            "rounds": outcome.result.rounds,
            "decisions": sorted(outcome.result.decisions.items()),
            "decision_rounds": sorted(outcome.result.decision_rounds.items()),
            "bits": outcome.result.metrics.total_bits,
            "messages": outcome.result.metrics.total_messages,
            "non_null": outcome.result.metrics.total_non_null_messages,
            "bits_by_round": outcome.result.metrics.bits_by_round(),
            "non_null_by_sender": sorted(
                outcome.result.metrics.non_null_by_sender().items()
            ),
        }
        for outcome in report.outcomes
    ]
    return hashlib.sha256(
        json.dumps(cells, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("scheduler", ["lockstep", "async:3:7"])
@pytest.mark.parametrize("grid", sorted(GOLDEN), ids=str)
def test_reports_are_the_parents_and_the_dense_oracles(
    grid, scheduler, monkeypatch
):
    report = run_grid(grid, scheduler)
    assert not report.violations
    assert report.executions == 80
    assert projection(report) == GOLDEN[grid]
    monkeypatch.setattr(
        compact_protocol, "AgreementBatch", ReferenceAgreementBatch
    )
    assert pickle.dumps(run_grid(grid, scheduler)) == pickle.dumps(report)
