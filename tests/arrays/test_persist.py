"""The cross-run persistent structural-sharing store.

The contract under test is the ISSUE's acceptance bar: the cache is a
*pure performance layer*.  Cold, warm and disabled runs produce
pickle-equal sweep reports; the cache survives a process restart and
concurrent writers; corruption is quarantined and recomputed, never
trusted; and every workload boundary goes through
:func:`repro.arrays.store.release_shared_stores` so gauges are
recorded and the registry really resets.
"""

import json
import pickle

import pytest

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.arrays import persist
from repro.arrays.digest import content_digest
from repro.arrays.store import (
    ArrayStore,
    clear_shared_stores,
    release_shared_stores,
    shared_store,
    shared_store_stats,
)
from repro.compact.expansion import ExpansionState
from repro.core.predicates import byzantine_agreement_predicate
from repro.fullinfo.decision import eig_byzantine_decision
from repro.fullinfo.protocol import full_information_factory
from repro.obs.core import Observer, observing
from repro.types import BOTTOM, SystemConfig, is_bottom


@pytest.fixture(autouse=True)
def fresh_cache_state():
    """Every test starts from no override, no memoised handles."""
    persist.reset_cache()
    persist.forget_caches()
    clear_shared_stores()
    yield
    persist.reset_cache()
    persist.forget_caches()
    clear_shared_stores()


def eig_rule(state, simulated_round, process_id):
    if simulated_round < 2 or not isinstance(state, tuple):
        return BOTTOM
    return eig_byzantine_decision(
        state, 4, 1, process_id, default=0, alphabet=(0, 1)
    )


def run_sweep(cache, workers=1):
    config = SystemConfig(n=4, t=1)
    return sweep(
        full_information_factory((0, 1), decision_rule=eig_rule, horizon=2),
        config,
        input_patterns=[{1: 0, 2: 1, 3: 0, 4: 1}, {1: 1, 2: 1, 3: 1, 4: 0}],
        fault_sets=[(4,), (2,)],
        adversary_makers=standard_adversary_makers((0, 1))[:3],
        seeds=(0,),
        predicate=byzantine_agreement_predicate(),
        max_rounds=2,
        workers=workers,
        cache=cache,
    )


class TestByteIdentity:
    def test_cold_warm_and_disabled_runs_are_pickle_equal(self, tmp_path):
        disabled = run_sweep(cache=False)
        cold = run_sweep(cache=tmp_path)
        persist.forget_caches()  # restart: drop the in-memory handle
        warm = run_sweep(cache=tmp_path)
        assert (
            pickle.dumps(disabled) == pickle.dumps(cold) == pickle.dumps(warm)
        )
        assert disabled.total_bits() == warm.total_bits()
        assert disabled.max_rounds() == warm.max_rounds()
        assert len(disabled.violations) == len(warm.violations)
        warm_cache = persist.store_for(tmp_path)
        assert warm_cache.counters["hit"] > 0
        assert warm_cache.counters["miss"] == 0

    def test_pooled_workers_match_serial_against_the_same_cache(
        self, tmp_path
    ):
        serial = run_sweep(cache=tmp_path)
        persist.forget_caches()
        pooled = run_sweep(cache=tmp_path, workers=2)
        assert pickle.dumps(serial) == pickle.dumps(pooled)


class TestRestartSurvival:
    def test_nodes_and_verdicts_survive_a_restart(self, tmp_path):
        with persist.using_cache(tmp_path) as cache:
            store = shared_store(4)
            node = store.intern(((0, 1, 0, 1), (1, 1, 0, 0),
                                 (0, 0, 1, 1), (1, 0, 1, 0)))
            digest = content_digest(node)
            cache.map_put("test.detail", "k", [1, 2])
            release_shared_stores()
        nodes_before = len(persist.store_for(tmp_path).stats()["kinds"])

        persist.forget_caches()  # simulate a new process
        clear_shared_stores()
        with persist.using_cache(tmp_path) as cache:
            reloaded = shared_store(4)
            # The whole DAG is back: re-interning the same structure
            # adds nothing new.
            count = len(reloaded)
            assert count >= 5  # 4 children + root
            again = reloaded.intern(((0, 1, 0, 1), (1, 1, 0, 0),
                                     (0, 0, 1, 1), (1, 0, 1, 0)))
            assert len(reloaded) == count
            assert content_digest(again) == digest
            assert cache.node_for(reloaded, digest.hex()) is again
            assert cache.map_get("test.detail", "k") == [1, 2]
        assert nodes_before == 2  # one nodes + one map segment kind

    def test_expansion_results_survive_a_restart(self, tmp_path):
        config = SystemConfig(n=4, t=1)

        def expand_once():
            store = shared_store(4)
            expansion = ExpansionState(config, (0, 1), store=store)
            for sender in config.process_ids:
                expansion.learn((2, sender), sender % 2)
            index_array = store.intern(((1, 2, 3, 4),) * 4)
            return expansion.expand(2, index_array)

        with persist.using_cache(tmp_path):
            first = expand_once()
            assert not is_bottom(first)
            release_shared_stores()
        persist.forget_caches()
        clear_shared_stores()
        with persist.using_cache(tmp_path) as cache:
            before_miss = cache.counters["miss"]
            second = expand_once()
            assert second == first
            # The phi_2 result itself came from the cache: no new
            # expansion misses beyond the (boundary-fingerprint) maps
            # that legitimately load fresh.
            assert cache.counters["hit"] > 0
            assert cache.counters["miss"] >= before_miss


class TestCorruptionQuarantine:
    def test_corrupt_segment_is_quarantined_counted_and_recomputed(
        self, tmp_path
    ):
        baseline = run_sweep(cache=False)
        cold = run_sweep(cache=tmp_path)
        segments = sorted(tmp_path.glob("seg-*.json"))
        assert segments
        for segment in segments:
            segment.write_bytes(b'{"kind": "garbage"}')

        persist.forget_caches()
        clear_shared_stores()
        observer = Observer()
        with observing(observer, close=False):
            warm = run_sweep(cache=tmp_path)
        assert pickle.dumps(warm) == pickle.dumps(baseline)
        quarantined = observer.registry.counter("persist.quarantined")
        assert quarantined == len(segments)
        assert len(list(tmp_path.glob("*.quarantined"))) == len(segments)
        assert not list(tmp_path.glob("seg-*.json.quarantined.extra"))

    def test_verify_reports_corruption(self, tmp_path):
        with persist.using_cache(tmp_path) as cache:
            shared_store(4).intern(((0,) * 4,) * 4)
            release_shared_stores()
            assert cache.verify()["ok"]
            segment = next(tmp_path.glob("seg-*.json"))
            blob = bytearray(segment.read_bytes())
            blob[-2] ^= 0xFF
            segment.write_bytes(bytes(blob))
            verdict = cache.verify()
            assert not verdict["ok"]
            assert verdict["corrupt"][0]["error"] == "sha-mismatch"


class TestConcurrentWriters:
    def test_two_writers_one_directory(self, tmp_path):
        """Two independent handles (≈ two processes) interleave safely."""
        writer_a = persist.PersistentStore(tmp_path)
        writer_b = persist.PersistentStore(tmp_path)
        store_a = ArrayStore(4)
        store_b = ArrayStore(4)
        shared = ((0, 1, 0, 1),) * 4
        only_b = ((1, 1, 1, 1),) * 4
        writer_a.warm_store(store_a)
        writer_b.warm_store(store_b)
        store_a.intern(shared)
        store_b.intern(shared)  # identical content: same segment name
        store_b.intern(only_b)
        writer_a.map_put("d", "k", True)
        writer_b.map_put("d", "k", True)
        writer_b.map_put("d", "k2", False)
        assert writer_a.flush() >= 1
        assert writer_b.flush() >= 1

        reader = persist.PersistentStore(tmp_path)
        assert reader.verify()["ok"]
        fresh = ArrayStore(4)
        reader.warm_store(fresh)
        count = len(fresh)
        fresh.intern(shared)
        fresh.intern(only_b)
        assert len(fresh) == count  # everything was already replayed
        assert reader.map_get("d", "k") is True
        assert reader.map_get("d", "k2") is False
        # Identical content was deduplicated by content address: the
        # reader sees each segment once even if both writers appended
        # a manifest line for it.
        stats = reader.stats()
        assert stats["segments"] == len(list(tmp_path.glob("seg-*.json")))
        lines = [
            json.loads(line)
            for line in (tmp_path / "manifest.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert {entry["segment"] for entry in lines} == {
            path.name for path in tmp_path.glob("seg-*.json")
        }

    def test_flush_is_idempotent(self, tmp_path):
        cache = persist.PersistentStore(tmp_path)
        store = ArrayStore(4)
        cache.warm_store(store)
        store.intern(((0,) * 4,) * 4)
        assert cache.flush() == 1
        assert cache.flush() == 0  # no new delta


class TestReleaseSharedStores:
    def test_release_records_gauges_flushes_and_resets(self, tmp_path):
        observer = Observer()
        with observing(observer, close=False):
            with persist.using_cache(tmp_path):
                shared_store(4).intern(((0, 1, 1, 0),) * 4)
                assert shared_store_stats()["nodes"] > 0
                release_shared_stores()
        gauges = observer.registry.gauges()
        assert gauges["arrays.shared_store.nodes"] > 0
        assert gauges["arrays.shared_store.stores"] == 1
        assert shared_store_stats()["nodes"] == 0
        assert shared_store_stats()["stores"] == 0
        # The flush really happened while the stores were still alive.
        assert list(tmp_path.glob("seg-*.json"))

    def test_release_without_cache_or_observer_still_clears(self):
        shared_store(4).intern(((1, 0, 0, 1),) * 4)
        release_shared_stores()
        assert shared_store_stats()["nodes"] == 0


class TestGc:
    def test_gc_prunes_by_age_and_rewrites_the_manifest(self, tmp_path):
        cache = persist.PersistentStore(tmp_path)
        store = ArrayStore(4)
        cache.warm_store(store)
        store.intern(((0,) * 4,) * 4)
        cache.flush()
        stats = cache.stats()
        assert stats["segments"] == 1
        segment = next(tmp_path.glob("seg-*.json"))
        now = segment.stat().st_mtime
        keep = cache.gc(keep_days=1.0, now=now)
        assert keep["removed"] == 0
        drop = cache.gc(keep_days=1.0, now=now + 2 * 86400.0)
        assert drop["removed"] == 1
        assert not list(tmp_path.glob("seg-*.json"))
        reread = persist.PersistentStore(tmp_path)
        assert reread.stats()["segments"] == 0
