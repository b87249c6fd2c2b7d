"""Compact BA end to end: nothing observable moved, against two oracles.

Making Protocol 3's rounds delta-driven (one CORE gate, store-shared
expansions, batches that re-tally only what changed) must be invisible
in every report.  Two checks per grid, under the lockstep engine and
the asynchronous reference, over the six-adversary gallery *and* the four
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
system sizes.  One more grid has the benchmark's own shape (n = 13,
t = 4, one pattern, both edge fault sets, one seed: 20 cells), where
nine correct processors share avalanche batch states.

The two zero-overhead variants are pinned the same way (the projection
only: they run no avalanche, so there is no dense oracle to swap in).
Their digests were recorded at the parent of the PR that put all three
fault models on one block driver, with ``crash_sizer`` / ``auth_sizer``
metering every patch and certificate: a crash grid (crash mid-broadcast
at cut 0.0 / 0.5 / 1.0, the i-th faulty processor in round i, and send
omissions) and an authenticated grid (the gallery plus the signing and
the forging equivocator).
"""

import hashlib
import json
import pickle

import pytest

import repro.compact.protocol as compact_protocol
from repro.adversary.crash import CrashAdversary
from repro.adversary.omission import OmissionAdversary
from repro.adversary.compact_attacks import (
    AvalancheEquivocator,
    ForgedIndexAdversary,
    SpliceAdversary,
    StaleCoreAdversary,
)
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays.store import clear_shared_stores
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.authenticated_variant import (
    auth_compact_ba_factory,
    auth_sizer,
)
from repro.compact.crash_variant import crash_compact_factory, crash_sizer
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate
from repro.obs import Observer, observing
from repro.types import SystemConfig
from repro.runtime.crypto import SignatureOracle
from tests.compact.reference_agreement_batch import ReferenceAgreementBatch
from tests.conftest import SCHEDULES
from tests.compact.test_authenticated_variant import (
    ForgingEquivocator,
    SigningEquivocator,
)

MAKERS = standard_adversary_makers() + [
    ("stale-core", StaleCoreAdversary),
    ("forged-index", ForgedIndexAdversary),
    ("splice", SpliceAdversary),
    ("avalanche-equivocator", AvalancheEquivocator),
]

#: ``(n, t, overhead, k)`` -> digest of the report's projection, the
#: same under both schedules, recorded at the parent commit.
GOLDEN = {
    (7, 2, 2, 1): "ea430db98f73ba242023ad5e97db5530963a8696c5595c7905f217ac04c5d290",
    (10, 3, 2, 1): "d046ee45ce1c499eb5ca1f6c6c9edd0a2c34980f9923db762a584f0b7cea4d31",
    (7, 2, 2, 2): "9675bc0efd960cce21f2fc90c4e010f0c47026a56d7f421e4c7dfe4fd222fc18",
    (9, 2, 1, 1): "93a57d8e894ed1b07cb0e915425aecb72b2ded11dd82b43e23866fcfb2c2b514",
    (9, 2, 1, 2): "3bf62e56a934d436bf280e590e318685f559f932387ae6d65b1bd34afe2f682e",
}

#: ``(n, t, k)`` -> digest, the benign variant under crash and omission.
CRASH_GOLDEN = {
    (7, 2, 1): "168d89a06372c1b48ad32b0bed45692452592dcbecb2d823aef8a20848feeb76",
    (7, 2, 2): "2c69f44d6972ede4098f172946bf1e07507d2c62cdd71e14ac1a221f22aaca77",
    (10, 3, 1): "7506c4d2de34c1a621c9a3c985154eda549e95d4cdb1570f23ef789b6f5794f9",
    (10, 3, 2): "134078d69a5e0416e6e008ef68796d4fba117d327396619e84b759a92d1e51a7",
}

#: ``(n, t, k)`` -> digest, the authenticated variant.
AUTH_GOLDEN = {
    (7, 2, 1): "3da4094b6846913f6f7e182fdaeccf9bcabe5d54783fb83bbf35b0813227b6df",
    (7, 2, 2): "d9497fa94983712888565ca660c386ff69e327dbc77a3b4c8eb7fe0cb5100bfc",
}


#: The ``compact-sweep`` shape's digest, recorded at the parent of the
#: change that made correct processors share batch states.
BENCHMARK_SHAPE_GOLDEN = (
    "f48b297fd601ac30cc4494b105af3673bdc559cb32acc742264f80c3e09e7356"
)


def run_grid(grid):
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
    )


def run_benchmark_shape_grid():
    config = SystemConfig(n=13, t=4)
    return sweep(
        compact_ba_factory(config, [0, 1], default=0, k=1),
        config,
        [{p: p % 2 for p in config.process_ids}],
        [tuple(range(1, 5)), tuple(range(10, 14))],
        MAKERS,
        seeds=(7,),
        predicate=byzantine_agreement_predicate(),
        max_rounds=compact_ba_rounds(4, 1) + 1,
        sizer=compact_sizer(config, 2),
        is_null=payload_is_null,
        workers=1,
    )


def run_variant_grid(factory, config, values, makers, sizer):
    n, t = config.n, config.t
    return sweep(
        factory,
        config,
        [
            {p: (p + shift) % len(values) for p in config.process_ids}
            for shift in range(2)
        ],
        [tuple(range(1, t + 1)), tuple(range(n - t + 1, n + 1))],
        makers,
        seeds=(1701, 1702),
        predicate=byzantine_agreement_predicate(),
        max_rounds=t + 2,
        sizer=sizer,
        workers=1,
    )


def run_crash_grid(grid):
    n, t, k = grid
    config = SystemConfig(n=n, t=t)
    factory = crash_compact_factory(k=k, value_alphabet=[0, 1, 2], t=t)

    def crash_at(cut):
        return lambda faulty: CrashAdversary(
            {p: rank for rank, p in enumerate(sorted(faulty), start=1)},
            factory,
            cut_fraction=cut,
        )

    makers = [(f"crash-{cut}", crash_at(cut)) for cut in (0.0, 0.5, 1.0)]
    makers.append(
        ("omission", lambda faulty: OmissionAdversary(faulty, factory, 0.4))
    )
    return run_variant_grid(
        factory, config, [0, 1, 2], makers, crash_sizer(config, 3)
    )


def run_auth_grid(grid):
    n, t, k = grid
    config = SystemConfig(n=n, t=t)
    oracle = SignatureOracle()
    makers = standard_adversary_makers() + [
        ("signing", lambda faulty: SigningEquivocator(faulty, oracle, k)),
        ("forging", ForgingEquivocator),
    ]
    return run_variant_grid(
        auth_compact_ba_factory(config, [0, 1], oracle, k=k),
        config, [0, 1], makers, auth_sizer(config, 2),
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


@pytest.mark.parametrize("schedule", SCHEDULES, indirect=True)
@pytest.mark.parametrize("grid", sorted(GOLDEN), ids=str)
def test_reports_are_the_parents_and_the_dense_oracles(
    grid, schedule, monkeypatch
):
    report = run_grid(grid)
    assert not report.violations
    assert report.executions == 80
    assert projection(report) == GOLDEN[grid]
    monkeypatch.setattr(
        compact_protocol, "AgreementBatch", ReferenceAgreementBatch
    )
    assert pickle.dumps(run_grid(grid)) == pickle.dumps(report)


@pytest.mark.parametrize("schedule", SCHEDULES, indirect=True)
def test_benchmark_shape_report_is_the_parents_and_the_dense_oracles(
    schedule, monkeypatch
):
    report = run_benchmark_shape_grid()
    assert not report.violations
    assert report.executions == 20
    assert projection(report) == BENCHMARK_SHAPE_GOLDEN
    monkeypatch.setattr(
        compact_protocol, "AgreementBatch", ReferenceAgreementBatch
    )
    assert pickle.dumps(run_benchmark_shape_grid()) == pickle.dumps(report)


def test_benchmark_shape_eig_routes():
    """How the benchmark shape's EIG decisions are resolved, exactly:
    one memo entry per distinct state, and 6 of its 10 states settled
    by the dominant-child walk with no sweep.  A change that silently
    disables the walk moves ``eig.kernel.descent`` here, with no timing
    involved."""
    clear_shared_stores()
    with observing(Observer()) as observer:
        report = run_benchmark_shape_grid()
    clear_shared_stores()
    assert projection(report) == BENCHMARK_SHAPE_GOLDEN
    counters = observer.registry.counters()
    assert {
        name: count for name, count in counters.items()
        if name.startswith("eig.")
    } == {
        "eig.decision.hit": 170,
        "eig.decision.miss": 10,
        "eig.kernel.descent": 6,
        "eig.kernel.flat": 4,
    }


@pytest.mark.parametrize("schedule", SCHEDULES, indirect=True)
@pytest.mark.parametrize("grid", sorted(CRASH_GOLDEN), ids=str)
def test_crash_variant_reports_are_the_parents(grid, schedule):
    report = run_crash_grid(grid)
    assert not report.violations
    assert report.executions == 32
    assert projection(report) == CRASH_GOLDEN[grid]


@pytest.mark.parametrize("schedule", SCHEDULES, indirect=True)
@pytest.mark.parametrize("grid", sorted(AUTH_GOLDEN), ids=str)
def test_authenticated_variant_reports_are_the_parents(grid, schedule):
    report = run_auth_grid(grid)
    assert not report.violations
    assert report.executions == 64
    assert projection(report) == AUTH_GOLDEN[grid]
