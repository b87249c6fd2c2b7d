"""Offline event-log queries: summarize and profile."""

from repro.obs.summarize import (
    profile_records,
    render_profile,
    render_summary,
    summarize_records,
)


def _event(kind, step, **fields):
    record = {"v": 2, "kind": kind, "run": "r1", "round": 0, "step": step}
    record.update(fields)
    return record


SAMPLE = [
    _event("run_start", 1, n=4, t=1, seed=0, adversary="A", faulty=[4]),
    _event("send", 2, sender=1, faulty=False, messages=[[2, 3, True]]),
    _event("send", 3, sender=2, faulty=False, messages=[[1, 3, True]]),
    _event("send", 4, sender=4, faulty=True, messages=[[1, 8, True, "0"]]),
    _event("round_end", 5, round=1, messages=9, non_null=9, bits=27),
    _event("round_end", 6, round=2, messages=9, non_null=6, bits=18),
    _event("decide", 7, process=1, value=0),
    _event("cell_end", 8, index=0, holds=True),
    _event("cell_end", 9, index=1, holds=False),
    _event("cell_end", 10, index=2, holds=None),
    _event("run_end", 11, rounds=2, decided=3, messages=18, non_null=15,
           bits=45),
    _event(
        "counters", 12,
        counters={"cache.hit": 3, "cache.miss": 1, "net.bits": 45},
    ),
    _event(
        "profile", 13, nondeterministic=True,
        spans={"engine.run": {"count": 1, "total_s": 0.5, "max_s": 0.5}},
        gauges={"pool.workers": 2.0},
    ),
    _event(
        "workers", 14, nondeterministic=True,
        workers=[{"cells": 3, "busy_s": 0.4}], wall_s=0.5, idle_s=0.6,
    ),
]


class TestSummarize:
    def test_counts(self):
        summary = summarize_records(SAMPLE)
        assert summary["records"] == len(SAMPLE)
        assert summary["runs"] == 1
        assert summary["decisions"] == 1
        assert summary["sends"] == 2
        assert summary["corruptions"] == 1
        assert summary["cells"] == {"total": 3, "held": 1, "falsified": 1}

    def test_a_burst_counts_per_message(self):
        burst = _event("send", 2, sender=1, faulty=False, messages=[
            [2, 3, True], [3, 3, True], [4, 3, True],
        ])
        corrupt = _event("send", 3, sender=4, faulty=True, messages=[
            [1, 8, True, "0"], [2, 8, True, "1"],
        ])
        summary = summarize_records([burst, corrupt])
        assert (summary["sends"], summary["corruptions"]) == (3, 2)

    def test_per_round_traffic(self):
        summary = summarize_records(SAMPLE)
        assert summary["per_round"]["1"]["bits"] == 27
        assert summary["per_round"]["2"]["non_null"] == 6
        assert list(summary["per_round"]) == ["1", "2"]

    def test_hit_rates_derived_from_counters(self):
        rates = summarize_records(SAMPLE)["hit_rates"]
        assert rates["cache"] == {"rate": 0.75, "hits": 3, "misses": 1}

    def test_summarizing_twice_is_identical(self):
        assert summarize_records(SAMPLE) == summarize_records(SAMPLE)

    def test_render(self):
        text = render_summary(summarize_records(SAMPLE))
        assert "runs: 1" in text
        assert "per-round traffic" in text
        assert "cache hit rates" in text
        assert "75.00%" in text
        assert "net.bits = 45" in text

    def test_empty_log(self):
        summary = summarize_records([])
        assert summary["runs"] == 0
        assert summary["per_round"] == {}
        assert "runs: 0" in render_summary(summary)


class TestProfile:
    def test_rollup(self):
        profile = profile_records(SAMPLE)
        assert profile["spans"]["engine.run"]["count"] == 1
        assert profile["gauges"]["pool.workers"] == 2.0
        assert profile["workers"][0]["idle_s"] == 0.6

    def test_multiple_profile_records_merge(self):
        doubled = SAMPLE + [
            _event(
                "profile", 15, nondeterministic=True,
                spans={"engine.run":
                       {"count": 2, "total_s": 0.25, "max_s": 0.2}},
                gauges={},
            )
        ]
        merged = profile_records(doubled)["spans"]["engine.run"]
        assert merged == {"count": 3, "total_s": 0.75, "max_s": 0.5}

    def test_render(self):
        text = render_profile(profile_records(SAMPLE))
        assert "span profile" in text
        assert "engine.run" in text
        assert "pool.workers = 2.0" in text
        assert "idle 0.600s" in text

    def test_render_without_spans(self):
        assert "no span profile" in render_profile(profile_records([]))
