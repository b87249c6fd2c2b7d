"""The message budget: every fuzzed execution is held to its spec's costs.

A campaign judges every spec — not as an opt-in oracle name — against
two declared numbers: the most bits one correct processor's round-``r``
message can take (``ProtocolSpec.message_bits``, measured by the spec's
own meter) and the round by which every correct processor has decided
(``ProtocolSpec.rounds``).  These tests show the judge is not vacuous:
planted specs that break either number are flagged, serial and pooled
campaigns agree on the verdicts, and a campaign meters a case exactly
as a direct run under the paper meter does.
"""

import dataclasses
import pathlib
from typing import Any, Dict

import pytest

from repro.analysis.complexity import compact_message_bits
from repro.compact.payload import compact_sizer, payload_is_null
from repro.fuzz.adversary import FuzzAdversary
from repro.fuzz.campaign import CampaignSettings, replay_case, run_campaign
from repro.fuzz.case import load_case
from repro.fuzz.protocols import (
    ProtocolSpec,
    get_spec,
    protocol_names,
    register,
    unregister,
)
from repro.runtime.engine import run_protocol
from repro.runtime.network import DEFAULT_LEAF_BITS, DEFAULT_NODE_BITS
from repro.runtime.node import Process, broadcast
from repro.types import ProcessId, Round, SystemConfig, Value

CORPUS = pathlib.Path(__file__).parent / "corpus"


class Hoarder(Process):
    """Decides its input at once, then keeps appending to its payload:
    one more scalar every round, the growth a budget must catch."""

    def __init__(self, process_id: ProcessId, config: SystemConfig, value: Value):
        super().__init__(process_id, config)
        self.log = [value]

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(tuple(self.log), self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        self.log.append(round_number)
        if not self.has_decided():
            self.decide(self.log[0], round_number)


HOARDER = ProtocolSpec(
    name="hoarder",
    title="hoarder (planted)",
    build=lambda config: Hoarder,
    oracles=("decided",),
    rounds=lambda config: 4,
    run_full=True,
    resilience=3,
    # What it claims: one scalar in a tuple, every round.
    message_bits=lambda config, r: DEFAULT_NODE_BITS + DEFAULT_LEAF_BITS,
)


@pytest.fixture
def planted():
    """Registers the hoarder and a Phase King that declares one round
    fewer than it takes; yields their names."""
    late = dataclasses.replace(
        get_spec("phase-king"),
        name="phase-king-late",
        rounds=lambda config: get_spec("phase-king").rounds(config) - 1,
    )
    for spec in (HOARDER, late):
        register(spec)
    try:
        yield HOARDER.name, late.name
    finally:
        for spec in (HOARDER, late):
            unregister(spec.name)


def _budget_violations(report):
    return [
        violation
        for failure in report.failures
        for violation in failure["violations"]
        if violation.startswith("[budget]")
    ]


def test_a_payload_that_grows_every_round_is_flagged_at_n4(planted):
    hoarder, _ = planted
    report = run_campaign(CampaignSettings(
        seed=1, cases=3, protocols=(hoarder,), n=4, t=1,
    ))
    assert len(report.failures) == 3
    violations = _budget_violations(report)
    # Round 1 fits the claim; every later round exceeds it.
    assert {v.split(":")[0] for v in violations} == {
        "[budget] round 2", "[budget] round 3", "[budget] round 4",
    }
    assert all("exceeds the budget of 10 bits a message" in v
               for v in violations)


def test_a_decision_past_the_declared_rounds_is_flagged(planted):
    _, late = planted
    report = run_campaign(CampaignSettings(
        seed=1, cases=4, protocols=(late,), n=4, t=1,
    ))
    assert report.failures
    for failure in report.failures:
        assert [v for v in failure["violations"]
                if "decided after the declared bound of 5 rounds" in v]


def test_pooled_and_serial_campaigns_reach_the_same_verdicts(planted):
    reports = [
        run_campaign(CampaignSettings(
            seed=5, cases=6, protocols=planted + ("compact-ba",), n=4,
            t=1, workers=workers,
        ))
        for workers in (1, 2)
    ]
    assert _budget_violations(reports[0])
    assert reports[0].to_json() == reports[1].to_json()


def test_the_campaign_meters_a_case_as_run_ba_does():
    """A compact payload is charged its CORE and votes, not one 8-bit
    leaf: the campaign's meter is the spec's paper meter."""
    case = load_case(CORPUS / "compact-ba-9be5a967d0f3.json")
    replayed = replay_case(case).result
    spec = get_spec(case.protocol)
    config = SystemConfig(n=case.n, t=case.t)
    direct = run_protocol(
        spec.build(config),
        config,
        case.input_map,
        adversary=FuzzAdversary(list(case.faulty), palette=spec.palette),
        max_rounds=spec.round_cap(config),
        sizer=compact_sizer(config, 2),
        is_null=payload_is_null,
        seed=case.seed,
    )
    assert replayed.metrics.total_bits == direct.metrics.total_bits
    # The default sizer read every payload as one 8-bit leaf; the vote
    # round carries n CORE votes a message.
    metrics = replayed.metrics
    assert max(
        bits / metrics.round_usage(round_number).messages
        for round_number, bits in metrics.bits_by_round()
    ) > 8


def test_every_spec_states_a_budget_for_every_round():
    config = SystemConfig(n=13, t=3)
    for name in protocol_names():
        spec = get_spec(name)
        last = spec.rounds(config) if spec.rounds else 20
        for round_number in range(1, last + 1):
            assert spec.message_bits(config, round_number) > 0, name


def test_compact_budget_follows_the_block_schedule():
    """k = 1, n = 10: a scalar, then per block a depth-1 CORE and one
    more batch of n depth-1 votes (4-bit leaves)."""
    config = SystemConfig(n=10, t=3)
    core = 10 * 4 + 2
    assert [compact_message_bits(config, r, 1) for r in range(1, 8)] == [
        4, core, 10 * core, 10 * core, core + 10 * core,
        2 * 10 * core, 2 * 10 * core,
    ]
