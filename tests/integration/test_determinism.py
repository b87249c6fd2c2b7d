"""Replayability: identical seeds, identical executions — everywhere.

A core design requirement (DESIGN.md): every execution is a pure
function of ``(protocol, inputs, adversary, seed)``.  These tests
replay the most state-heavy stacks and compare full traces, and
replay the registry and the corpus in two fresh processes under
different hash seeds, where a wall-clock read, an unseeded RNG or the
iteration order of a ``set`` of strings shows as a difference.
"""

import os
import pathlib
import subprocess
import sys

from repro.adversary import RandomGarbageAdversary
from repro.adversary.omission import OmissionAdversary
from repro.agreement.ben_or import ben_or_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.crash_variant import crash_compact_factory
from repro.fuzz.protocols import get_spec, protocol_names
from repro.obs.events import read_log
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig

REPO = pathlib.Path(__file__).resolve().parents[2]
CORPUS = REPO / "tests" / "fuzz" / "corpus"


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


def _replay_in_a_fresh_process(directory, hash_seed):
    """Stdout of a registry campaign and a corpus replay, and the
    campaign log's deterministic records, under ``hash_seed``."""
    directory.mkdir()
    env = dict(
        os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(REPO / "src")
    )
    config = SystemConfig(n=7, t=2)
    protocols = [
        argument
        for name in protocol_names()
        if get_spec(name).supports(config) is None
        for argument in ("--protocol", name)
    ]
    commands = (
        ["fuzz", "--seed", "2026", "--cases", "10", "--n", "7", "--t", "2",
         *protocols, "--events", "events.jsonl"],
        ["fuzz", "--replay", str(CORPUS)],
    )
    stdout = [
        subprocess.run(
            [sys.executable, "-m", "repro", *command], cwd=directory,
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for command in commands
    ]
    records = [
        record for record in read_log(directory / "events.jsonl")
        if not record.get("nondeterministic")
    ]
    return stdout, records


class TestHashSeedReplay:
    def test_two_processes_two_hash_seeds_one_output(self, tmp_path):
        first, second = (
            _replay_in_a_fresh_process(tmp_path / f"hash-{seed}", seed)
            for seed in (0, 1)
        )
        assert first[0] == second[0]
        assert len(first[1]) > 1000
        assert first[1] == second[1]
