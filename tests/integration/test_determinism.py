"""Replayability: identical seeds, identical executions — everywhere.

A core design requirement (DESIGN.md): every execution is a pure
function of ``(protocol, inputs, adversary, seed)``.  These tests
replay the most state-heavy stacks and compare full traces, and
replay the registry, the corpus and the four protocols the registry
exempts in two fresh processes under different hash seeds, where a
wall-clock read, an unseeded RNG or the iteration order of a ``set``
of strings shows as a difference.
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


#: The ``CATALOG_EXEMPT`` protocols, which no campaign runs: decisions,
#: decision rounds, metered bits and each correct processor's final
#: state, printed as the snapshot gives it.
_EXEMPT_RUNS = """
from repro.adversary import RandomGarbageAdversary, SilentAdversary
from repro.adversary.crash import CrashAdversary
from repro.agreement.approximate import approximate_factory
from repro.agreement.early_stopping import early_stopping_factory
from repro.agreement.phase_king import phase_king_factory, phase_king_rounds
from repro.agreement.turpin_coan import turpin_coan_factory
from repro.compact.crash_variant import crash_compact_factory, crash_sizer
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig

config = SystemConfig(n=7, t=2)
ids = config.process_ids
floats = {1: 0.0, 2: 10.0, 3: 5.0, 4: 2.0, 5: 8.0, 6: 1.0, 7: 9.0}
early = early_stopping_factory()
crash = crash_compact_factory(k=2, value_alphabet=[0, 1, 2], t=config.t)
runs = [
    (approximate_factory(rounds=6), floats, SilentAdversary([3, 4]), 7, None),
    *((early, {p: f"value-{p}" for p in ids},
       CrashAdversary(crashes, early, cut_fraction=cut), config.t + 2, None)
      for crashes, cut in (({1: 1}, 0.5), ({1: 1, 2: 2}, 0.3))),
    (crash, {p: p % 3 for p in ids}, CrashAdversary({3: 1, 6: 2}, crash),
     config.t + 2, crash_sizer(config, 3)),
    (turpin_coan_factory(phase_king_factory(), default="z"),
     {p: "aabaaca"[p - 1] for p in ids},
     RandomGarbageAdversary([3, 6], palette=["a", "b", "q"]),
     3 + phase_king_rounds(config.t), None),
]
for factory, inputs, adversary, max_rounds, sizer in runs:
    result = run_protocol(factory, config, inputs, adversary=adversary,
                          max_rounds=max_rounds, sizer=sizer)
    print(sorted(result.decisions.items()),
          sorted(result.decision_rounds.items()), result.metrics.total_bits)
    for p, process in sorted(result.processes.items()):
        print(p, process.snapshot())
"""


def _replay_in_a_fresh_process(directory, hash_seed):
    """Stdout of a registry campaign, a corpus replay and the exempt
    protocols' runs, and the campaign log's deterministic records,
    under ``hash_seed``."""
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
        ["-m", "repro", "fuzz", "--seed", "2026", "--cases", "10",
         "--n", "7", "--t", "2", *protocols, "--events", "events.jsonl"],
        ["-m", "repro", "fuzz", "--replay", str(CORPUS)],
        ["-c", _EXEMPT_RUNS],
    )
    stdout = [
        subprocess.run(
            [sys.executable, *command], cwd=directory,
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
