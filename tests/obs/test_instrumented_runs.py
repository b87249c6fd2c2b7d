"""End-to-end instrumentation: real runs observed through the runtime.

The determinism contract under test: the event stream of an observed
run is a pure function of ``(protocol, inputs, adversary, seed)`` —
identical in-process for everything except the cache-warmth counters
dump, and byte-identical across fresh processes.
"""

import os
import subprocess
import sys

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.adversary.base import Adversary
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.payload import CompactPayload
from repro.obs import Observer, load_status, observing, status_from_records
from repro.obs.events import read_log


def observed_compact_ba(log, config4, adversary):
    with observing(Observer(events=log)):
        run_compact_byzantine_agreement(
            config4,
            {1: 1, 2: 0, 3: 1, 4: 0},
            value_alphabet=[0, 1],
            k=2,
            adversary=adversary,
        )
    return read_log(log.path)


class TestObservedRun:
    def test_records_validate(self, config4, new_log):
        records = observed_compact_ba(
            new_log(), config4, EquivocatingAdversary([4], 0, 1)
        )
        assert status_from_records(records)["degraded"] == []

    def test_expected_event_kinds(self, config4, new_log):
        records = observed_compact_ba(
            new_log(), config4, EquivocatingAdversary([4], 0, 1)
        )
        kinds = {record["kind"] for record in records}
        assert {
            "run_start", "run_end", "round_start", "round_end",
            "send", "state", "decide", "counters", "profile",
        } <= kinds
        assert any(r["kind"] == "send" and r["faulty"] for r in records)

    def test_corrupt_events_only_under_an_adversary(self, config4, new_log):
        silent = observed_compact_ba(new_log(), config4, SilentAdversary([]))
        assert not any(r.get("faulty") is True for r in silent)

    def test_run_start_describes_the_scenario(self, config4, new_log):
        records = observed_compact_ba(
            new_log(), config4, EquivocatingAdversary([4], 0, 1)
        )
        start = next(r for r in records if r["kind"] == "run_start")
        assert start["n"] == 4
        assert start["t"] == 1
        assert start["adversary"] == "EquivocatingAdversary"
        assert start["faulty"] == [4]

    def test_round_totals_match_the_meters(self, config4, new_log):
        records = observed_compact_ba(
            new_log(), config4, EquivocatingAdversary([4], 0, 1)
        )
        end = next(r for r in records if r["kind"] == "run_end")
        round_bits = sum(
            r["bits"] for r in records if r["kind"] == "round_end"
        )
        send_bits = sum(
            entry[1] for r in records
            if r["kind"] == "send" and not r["faulty"]
            for entry in r["messages"]
        )
        assert end["bits"] == round_bits == send_bits

    def test_counters_expose_the_caches(self, config4, new_log):
        records = observed_compact_ba(
            new_log(), config4, EquivocatingAdversary([4], 0, 1)
        )
        counters = next(
            r for r in records if r["kind"] == "counters"
        )["counters"]
        assert counters["runs"] == 1
        assert counters["net.messages"] > 0
        assert "net.size_cache.hit" in counters
        assert "compact.expansion.hit" in counters

    def test_event_stream_is_deterministic_in_process(self, config4, new_log):
        def stream():
            return [
                record
                for record in observed_compact_ba(
                    new_log(), config4, EquivocatingAdversary([4], 0, 1)
                )
                # cache-warmth counters and wall time vary in-process
                if record["kind"] not in ("counters", "profile")
            ]

        assert stream() == stream()

    def test_unobserved_run_stays_unobserved(self, config4):
        # no active observer: the null path must not blow up anywhere
        result = run_compact_byzantine_agreement(
            config4,
            {1: 1, 2: 0, 3: 1, 4: 0},
            value_alphabet=[0, 1],
            k=2,
            adversary=EquivocatingAdversary([4], 0, 1),
        )
        assert result.decisions


class RevotingAdversary(Adversary):
    """Casts a fresh non-null vote in every slot of every batch, every
    round — the delta-driven batch's worst case."""

    def outgoing(self, round_number, sender, context):
        messages = {}
        for receiver in self.config.process_ids:
            template = context.sample_correct_message(receiver)
            messages[receiver] = CompactPayload(
                main=template.main,
                votes=tuple(
                    (boundary, (f"noise-{round_number}",) * len(votes))
                    for boundary, votes in template.votes
                ),
            )
        return messages


class MalformedVotesAdversary(Adversary):
    """Sends everyone a payload whose ``votes`` is not a tuple."""

    def outgoing(self, round_number, sender, context):
        return {
            receiver: CompactPayload(main=(), votes=7)
            for receiver in self.config.process_ids
        }


class TestMalformedVotesObserved:
    """Observing a run must not change whether it completes: a faulty
    ``send`` entry's summary of a non-tuple ``votes`` used to
    raise where the unobserved run decided."""

    @staticmethod
    def decide(config4, observer=None):
        def run():
            return run_compact_byzantine_agreement(
                config4,
                {p: 1 for p in config4.process_ids},
                value_alphabet=[0, 1],
                k=1,
                adversary=MalformedVotesAdversary([4]),
            ).decisions

        if observer is None:
            return run()
        with observing(observer):
            return run()

    def test_observed_run_decides_like_the_unobserved_one(self, config4, new_log):
        unobserved = self.decide(config4)
        assert unobserved == {1: 1, 2: 1, 3: 1}
        for trace in (False, True):
            log = new_log()
            observed = self.decide(
                config4, Observer(events=log, trace=trace)
            )
            assert observed == unobserved
            assert load_status(log.path)["degraded"] == []
            assert any(
                entry[3] == "core:array[d0 w0] votes:?"
                for record in read_log(log.path)
                if record["kind"] == "send" and record["faulty"]
                for entry in record["messages"]
            )


class TestAvalancheWorkCounters:
    """``compact.avalanche.{tallied,skipped}``: how many avalanche
    instances a run re-tallied and how many it left alone."""

    def run(self, log, config, adversary=None):
        inputs = {p: p % 2 for p in config.process_ids}
        with observing(Observer(events=log)):
            result = run_compact_byzantine_agreement(
                config, inputs, value_alphabet=[0, 1], k=1, adversary=adversary
            )
        batches = [
            batch
            for process in result.processes.values()
            for batch in process._batches.values()
        ]
        return batches, load_status(log.path)["counters"]

    def test_fault_free_run_tallies_two_rounds_per_batch(self, config7, new_log):
        batches, counters = self.run(new_log(), config7)
        n = config7.n
        steps = [batch.rounds_stepped for batch in batches]
        # Seven rounds, batches started in rounds 2 and 5.
        assert sorted(steps) == [2] * n + [5] * n
        # A batch's first two steps run different rules and always
        # tally; after that nothing changes, so nothing is tallied.
        assert counters["compact.avalanche.tallied"] == 2 * n * len(batches)
        assert (
            counters["compact.avalanche.tallied"]
            + counters["compact.avalanche.skipped"]
            == n * sum(steps)
        )

    def test_a_revoting_sender_shows_up_as_tallies(self, config7, new_log):
        batches, counters = self.run(new_log(), config7, RevotingAdversary([1, 2]))
        n = config7.n
        steps = sum(batch.rounds_stepped for batch in batches)
        # Every round dirties every row: nothing is ever skipped.
        assert counters["compact.avalanche.tallied"] == n * steps
        assert counters["compact.avalanche.skipped"] == 0


class TestObservedSweep:
    def test_cell_lifecycle_events(self, config4, new_log):
        log = new_log()
        patterns = [{p: p % 2 for p in config4.process_ids}]
        with observing(Observer(events=log)) as observer:
            sweep(
                avalanche_factory(), config4, patterns, [(3,)],
                standard_adversary_makers()[:2], seeds=(0,),
                run_full_rounds=3, workers=1,
            )
        records = read_log(log.path)
        starts = [r for r in records if r["kind"] == "cell_start"]
        ends = [r for r in records if r["kind"] == "cell_end"]
        assert len(starts) == len(ends) == 2
        assert [r["index"] for r in starts] == [0, 1]
        assert observer.registry.counter("sweep.cells") == 2
        assert status_from_records(records)["degraded"] == []

    def test_pooled_sweep_reports_executor_stats(self, config4, new_log):
        log = new_log()
        patterns = [{p: p % 2 for p in config4.process_ids}]
        with observing(Observer(events=log)) as observer:
            sweep(
                avalanche_factory(), config4, patterns, [(3,)],
                standard_adversary_makers()[:2], seeds=(0, 1),
                run_full_rounds=3, workers=2,
            )
        # cells execute in workers whose inherited observer is swapped
        # for a local counters-only one; the parent records
        # executor-level instrumentation and absorbs the workers'
        # scheduling-independent counters
        records = read_log(log.path)
        kinds = {r["kind"] for r in records}
        assert "chunk" in kinds
        assert "cell_start" not in kinds
        workers_events = [r for r in records if r["kind"] == "workers"]
        assert len(workers_events) == 1
        assert workers_events[0]["nondeterministic"] is True
        gauges = observer.registry.gauges()
        assert gauges["pool.workers"] == 2.0
        assert observer.registry.counter("pool.chunks") > 0
        assert observer.registry.counter("sweep.cells") == 4
        assert observer.registry.counter("runs") == 4
        assert observer.registry.counter("net.bits") > 0
        # cache hit/miss splits depend on chunk-to-worker scheduling,
        # so they never cross the process boundary
        assert not any(
            name.endswith((".hit", ".miss"))
            for name in observer.registry.counters()
        )
        assert status_from_records(records)["degraded"] == []

    def test_pooled_counters_match_the_serial_reference(self, config4):
        patterns = [{p: p % 2 for p in config4.process_ids}]

        def observed_counters(workers):
            with observing(Observer(events=None)) as observer:
                sweep(
                    avalanche_factory(), config4, patterns, [(3,)],
                    standard_adversary_makers()[:2], seeds=(0, 1),
                    run_full_rounds=3, workers=workers,
                )
            counters = observer.registry.counters()
            return {
                name: value for name, value in counters.items()
                if name.startswith("net.") and not name.endswith(
                    (".hit", ".miss")
                ) or name in ("runs", "sweep.cells")
            }

        assert observed_counters(1) == observed_counters(2)


class TestFreshProcessByteIdentity:
    @staticmethod
    def deterministic_lines(tmp_path, *run_ba_args):
        """Two fresh `run-ba --events` logs, nondeterministic records cut."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        for path in paths:
            subprocess.run(
                [sys.executable, "-m", "repro", "run-ba", "--t", "1",
                 *run_ba_args, "--events", str(path)],
                check=True, env=env, capture_output=True,
            )
        logs = [path.read_bytes().splitlines() for path in paths]
        # the nondeterministic section is exempt from byte identity
        kept = [
            [line for line in log if b'"nondeterministic": true' not in line]
            for log in logs
        ]
        assert all(len(k) < len(log) for k, log in zip(kept, logs))
        return kept

    def test_two_fresh_processes_write_identical_logs(self, tmp_path):
        """The cross-process half of the determinism contract."""
        first, second = self.deterministic_lines(tmp_path)
        assert first == second

    def test_junk_objects_are_summarised_without_their_address(
        self, tmp_path
    ):
        """`malformed` sends a bare ``object()``; its default repr
        carries an address, which used to land in the summary of every
        faulty message and make the two logs differ."""
        first, second = self.deterministic_lines(
            tmp_path, "--adversary", "malformed"
        )
        assert first == second
        assert any(b', "<object>"]' in line for line in first)
