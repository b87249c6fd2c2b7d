"""End-to-end bug hunt: a weakened decision rule is caught and shrunk.

The ISSUE acceptance scenario: register a test-only avalanche mutant
whose thresholds allow a *premature round-1 decision* (decide on the
round-1 tally at only ``t + 1`` votes, far below the sound ``2t + 1``
avalanche threshold), run a seeded campaign against it, and require
that the oracles catch the violation and the shrinker reduces it to a
small replayable :class:`FuzzCase`.
"""

import dataclasses

import pytest

from repro.fuzz.campaign import CampaignSettings, replay_case, run_campaign
from repro.fuzz.case import load_case
from repro.fuzz.protocols import get_spec, register, unregister
from repro.fuzz.shrink import shrink_case

MUTANT = "avalanche-weak-mutant"


def _build_mutant(config):
    from repro.avalanche.protocol import (
        Thresholds,
        avalanche_factory,
        standard_thresholds,
    )

    good = standard_thresholds(config)
    # Sound thresholds, except: decide on the round-1 tally at t+1
    # votes.  A single equivocator can then split the round-1 tallies
    # of different correct processors and make them decide differently.
    weakened = Thresholds(
        round1_adopt=good.round1_adopt,
        later_adopt=good.later_adopt,
        decide=good.decide,
        round1_decide=config.t + 1,
    )
    return avalanche_factory(thresholds=weakened)


@pytest.fixture
def mutant_registered():
    register(dataclasses.replace(
        get_spec("avalanche"), name=MUTANT, build=_build_mutant
    ))
    try:
        yield
    finally:
        unregister(MUTANT)


def test_campaign_catches_and_shrinks_the_mutant(mutant_registered, tmp_path):
    report = run_campaign(CampaignSettings(
        seed=3,
        cases=40,
        protocols=(MUTANT,),
        shrink=True,
        corpus_dir=tmp_path,
    ))

    # Caught: the weakened rule produces real agreement violations.
    assert report.failures, "the weakened decision rule went undetected"
    assert any(
        "[avalanche]" in violation
        for failure in report.failures
        for violation in failure["violations"]
    )

    # Shrunk: small enough to read (ISSUE: <= 3 rounds, <= 2 faulty).
    assert report.shrunk, "no shrunk counterexample was produced"
    for entry in report.shrunk:
        assert entry["rounds"] <= 3
        assert len(entry["faulty"]) <= 2

    # Replayable: the saved file reproduces the failure via the
    # ordinary corpus path while the mutant spec is registered.
    saved = load_case(tmp_path / report.shrunk[0]["file"])
    outcome = replay_case(saved)
    assert outcome.failed
    assert any("[avalanche]" in violation for violation in outcome.violations)


def _find_failing_case():
    """Scan seeds for one failing execution of the mutant (deterministic)."""
    from repro.fuzz.case import FuzzCase

    for seed in range(200):
        case = FuzzCase.build(
            protocol=MUTANT,
            n=4,
            t=1,
            seed=seed,
            inputs={1: 1, 2: 1, 3: 0, 4: 0},
            faulty=(4,),
        )
        outcome = replay_case(case)
        if outcome.failed:
            return case.with_(violations=outcome.violations)
    pytest.fail("no failing seed in 0..199 — mutant not being caught")


def test_shrinker_is_greedy_and_preserves_failure(mutant_registered):
    failing = _find_failing_case()
    result = shrink_case(failing)
    assert result.attempts >= 1
    assert replay_case(result.case).failed
    # Shrinking never grows the case along any axis.
    assert len(result.case.faulty) <= len(failing.faulty)
    if failing.rounds is not None and result.case.rounds is not None:
        assert result.case.rounds <= failing.rounds
    assert "shrunk from" in result.case.note


def test_clean_protocol_yields_no_failures_on_same_seed():
    """The same campaign against the *sound* thresholds stays clean."""
    report = run_campaign(CampaignSettings(
        seed=3, cases=40, protocols=("avalanche",),
    ))
    assert report.failures == []
