"""Replayability: identical seeds, identical executions — everywhere.

A core design requirement (DESIGN.md): every execution is a pure
function of ``(protocol, inputs, adversary, seed)``.  These tests
replay the most state-heavy stacks and compare full traces.
"""

from repro.adversary import RandomGarbageAdversary
from repro.adversary.omission import OmissionAdversary
from repro.agreement.ben_or import ben_or_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.crash_variant import crash_compact_factory
from repro.runtime.engine import run_protocol


def trace_fingerprint(result):
    return [
        (e.round_number, e.sender, e.receiver, repr(e.payload))
        for e in result.trace.envelopes
    ]


class TestCompactDeterminism:
    def test_same_seed_identical_traces(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        runs = [
            run_compact_byzantine_agreement(
                config7,
                inputs,
                value_alphabet=[0, 1],
                k=1,
                adversary=RandomGarbageAdversary([2, 5]),
                seed=42,
                record_trace=True,
            )
            for _ in range(2)
        ]
        assert trace_fingerprint(runs[0]) == trace_fingerprint(runs[1])
        assert runs[0].decisions == runs[1].decisions

    def test_different_seeds_differ(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        fingerprints = []
        for seed in (1, 2):
            result = run_compact_byzantine_agreement(
                config7,
                inputs,
                value_alphabet=[0, 1],
                k=1,
                adversary=RandomGarbageAdversary(
                    [2, 5], palette=list(range(20))
                ),
                seed=seed,
                record_trace=True,
            )
            fingerprints.append(trace_fingerprint(result))
        assert fingerprints[0] != fingerprints[1]


class TestBenOrDeterminism:
    def test_coins_replay(self, config7):
        """Randomized protocol + random adversary, still replayable."""
        inputs = {p: p % 2 for p in config7.process_ids}
        outcomes = set()
        for _ in range(2):
            result = run_protocol(
                ben_or_factory(seed=11),
                config7,
                inputs,
                adversary=RandomGarbageAdversary([3, 6]),
                max_rounds=600,
                seed=11,
            )
            outcomes.add(
                (result.rounds, tuple(sorted(result.decisions.items())))
            )
        assert len(outcomes) == 1


class TestOmissionDeterminism:
    def test_random_drops_replay(self, config7):
        inputs = {p: p % 3 for p in config7.process_ids}
        fingerprints = []
        for _ in range(2):
            factory = crash_compact_factory(
                k=2, value_alphabet=[0, 1, 2], t=config7.t
            )
            result = run_protocol(
                factory,
                config7,
                inputs,
                adversary=OmissionAdversary([2, 5], factory, 0.5),
                max_rounds=config7.t + 2,
                seed=7,
                record_trace=True,
            )
            fingerprints.append(trace_fingerprint(result))
        assert fingerprints[0] == fingerprints[1]
