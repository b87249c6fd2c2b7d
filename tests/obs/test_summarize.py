"""Summarizing a recorded run: the traffic and wall-clock fields of the
one report, :func:`repro.obs.rollup.status_from_records`."""

from repro.obs.events import SCHEMA_VERSION
from repro.obs.rollup import render_status, status_from_records


def _event(kind, step, **fields):
    record = {
        "v": SCHEMA_VERSION, "kind": kind, "run": "r1", "round": 0,
        "step": step,
    }
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
        "workers", 14, nondeterministic=True, planned=2,
        workers=[{"cells": 3, "busy_s": 0.4}], wall_s=0.5, idle_s=0.6,
    ),
]


def test_the_sample_is_a_valid_log():
    assert status_from_records(SAMPLE)["degraded"] == []


class TestSummarize:
    def test_counts(self):
        status = status_from_records(SAMPLE)
        assert status["records"] == len(SAMPLE)
        assert status["runs"] == {"started": 1, "ended": 1}
        assert status["decisions"] == 1
        assert status["sends"] == 2
        assert status["corruptions"] == 1
        assert status["cells"] == {
            "planned": 0, "pooled": 0, "serial": 3, "done": 3,
            "held": 1, "falsified": 1,
        }

    def test_a_burst_counts_per_message(self):
        burst = _event("send", 2, sender=1, faulty=False, messages=[
            [2, 3, True], [3, 3, True], [4, 3, True],
        ])
        corrupt = _event("send", 3, sender=4, faulty=True, messages=[
            [1, 8, True, "0"], [2, 8, True, "1"],
        ])
        status = status_from_records([burst, corrupt])
        assert (status["sends"], status["corruptions"]) == (3, 2)

    def test_per_round_traffic(self):
        per_round = status_from_records(SAMPLE)["per_round"]
        assert per_round["1"] == {
            "rounds": 1, "messages": 9, "non_null": 9, "bits": 27,
        }
        assert per_round["2"]["non_null"] == 6
        assert list(per_round) == ["1", "2"]

    def test_per_round_sums_across_runs(self):
        again = [
            _event(record["kind"], 20 + record["step"],
                   **{key: value for key, value in record.items()
                      if key not in ("kind", "step")})
            for record in SAMPLE[:6]
        ]
        per_round = status_from_records(SAMPLE[:6] + again)["per_round"]
        assert per_round["1"] == {
            "rounds": 2, "messages": 18, "non_null": 18, "bits": 54,
        }
        assert per_round["2"]["bits"] == 36

    def test_hit_rates_derived_from_counters(self):
        rates = status_from_records(SAMPLE)["hit_rates"]
        assert rates["cache"] == {"rate": 0.75, "hits": 3, "misses": 1}

    def test_summarizing_twice_is_identical(self):
        assert status_from_records(SAMPLE) == status_from_records(SAMPLE)

    def test_render(self):
        text = render_status(status_from_records(SAMPLE))
        assert "runs: started 1  ended 1  decisions: 1" in text
        assert "sends: 2  corruptions: 1" in text
        assert "held 1  falsified 1" in text
        assert "per-round traffic" in text
        assert "cache hit rates" in text
        assert "75.00%" in text
        assert "net.bits = 45" in text

    def test_empty_log(self):
        status = status_from_records([])
        assert status["runs"] == {"started": 0, "ended": 0}
        assert status["per_round"] == {}
        assert "runs: started 0" in render_status(status)


class TestProfile:
    def test_rollup(self):
        status = status_from_records(SAMPLE)
        assert status["spans"]["engine.run"]["count"] == 1
        assert status["gauges"]["pool.workers"] == 2.0
        assert status["pools"] == [{
            "planned": 2, "wall_s": 0.5, "idle_s": 0.6,
            "workers": [{"cells": 3, "busy_s": 0.4}],
        }]

    def test_multiple_profile_records_merge(self):
        doubled = SAMPLE + [
            _event(
                "profile", 15, nondeterministic=True,
                spans={"engine.run":
                       {"count": 2, "total_s": 0.25, "max_s": 0.2},
                       "engine.run/eig.decision":
                       {"count": 4, "total_s": 0.125, "max_s": 0.05}},
                gauges={},
            )
        ]
        spans = status_from_records(doubled)["spans"]
        assert spans == {
            "engine.run": {"count": 3, "total_s": 0.75, "max_s": 0.5},
            "engine.run/eig.decision":
                {"count": 4, "total_s": 0.125, "max_s": 0.05},
        }

    def test_render(self):
        text = render_status(status_from_records(SAMPLE))
        assert "span profile" in text
        assert "engine.run" in text
        assert "pool.workers = 2.0" in text
        assert "pool: 2 worker(s), wall 0.5s, idle 0.6s" in text

    def test_render_without_spans(self):
        text = render_status(status_from_records(SAMPLE[:-2]))
        assert "span profile" not in text
        assert "per-worker throughput" not in text
