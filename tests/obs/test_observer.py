"""The observer, its registry, spans, and activation lifecycle."""

import pytest

import repro.obs.core as obs_core
from repro.obs import (
    InstrumentRegistry,
    NULL_SPAN,
    Observer,
    SpanProfile,
    activate,
    deactivate,
    observing,
    profile_dict,
    span,
    status_from_records,
)
from repro.obs.events import read_log


@pytest.fixture(autouse=True)
def _null_observer():
    """Every test here starts and ends in the null-observer state."""
    deactivate()
    yield
    deactivate()


class TestRegistry:
    def test_counters_accumulate(self):
        registry = InstrumentRegistry()
        registry.count("a")
        registry.count("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("untouched") == 0

    def test_counters_sorted_copy(self):
        registry = InstrumentRegistry()
        registry.count("b")
        registry.count("a")
        snapshot = registry.counters()
        assert list(snapshot) == ["a", "b"]
        snapshot["a"] = 99
        assert registry.counter("a") == 1

    def test_gauges_last_write_wins(self):
        registry = InstrumentRegistry()
        registry.set_gauge("g", 1.0)
        registry.set_gauge("g", 2.5)
        assert registry.gauge("g") == 2.5
        assert registry.gauge("missing") is None

    def test_hit_rates_pair_convention(self):
        registry = InstrumentRegistry()
        registry.count("cache.hit", 3)
        registry.count("cache.miss", 1)
        registry.count("lonely.hit", 2)
        rates = registry.hit_rates()
        assert rates["cache"] == (0.75, 3, 1)
        assert rates["lonely"] == (1.0, 2, 0)

    def test_hit_rate_of_untouched_pair_is_zero(self):
        registry = InstrumentRegistry()
        registry.count("cache.hit", 0)
        assert registry.hit_rates()["cache"] == (0.0, 0, 0)

    def test_absorb(self):
        registry = InstrumentRegistry()
        registry.count("a")
        registry.absorb({"a": 2, "b": 3})
        assert registry.counters() == {"a": 3, "b": 3}


class TestSpans:
    def test_profile_counts_and_totals(self):
        profile = SpanProfile()
        profile.record("x", 0.25)
        profile.record("x", 0.75)
        assert profile.snapshot() == {"x": (2, 1.0, 0.75)}

    def test_since_diffs_counts_and_totals(self):
        profile = SpanProfile()
        profile.record("x", 1.0)
        mark = profile.snapshot()
        profile.record("x", 0.5)
        profile.record("y", 0.25)
        delta = profile.since(mark)
        assert delta["x"][0] == 1
        assert delta["x"][1] == pytest.approx(0.5)
        assert delta["y"] == (1, 0.25, 0.25)

    def test_profile_dict_shape(self):
        rendered = profile_dict({"b": (1, 0.1234567, 0.1), "a": (2, 1.0, 0.5)})
        assert list(rendered) == ["a", "b"]
        assert rendered["b"] == {"count": 1, "total_s": 0.123457, "max_s": 0.1}

    def test_span_paths_nest(self):
        observer = Observer()
        with observer.span("outer"):
            with observer.span("inner"):
                pass
        paths = set(observer.profile_snapshot())
        assert paths == {"outer", "outer/inner"}

    def test_spans_off_returns_null_span(self):
        observer = Observer(spans=False)
        assert observer.span("x") is NULL_SPAN
        with observer.span("x"):
            pass
        assert observer.profile_snapshot() == {}

    def test_module_span_is_null_when_inactive(self):
        assert span("anything") is NULL_SPAN


class TestObserverLifecycle:
    def test_clock_stamps_and_advances(self, new_log):
        log = new_log()
        observer = Observer(events=log)
        run = observer.begin_run(4, 1, 0, "SilentAdversary", [3])
        observer.set_round(2)
        observer.emit("round_start")
        observer.end_run(2, 3, 10, 10, 100)
        log.close()
        assert run == "r1"
        records = read_log(log.path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["run_start", "round_start", "run_end"]
        assert [r["step"] for r in records] == [1, 2, 3]
        assert records[1]["run"] == "r1"
        assert records[1]["round"] == 2
        assert status_from_records(records)["degraded"] == []

    def test_second_run_gets_fresh_id(self, new_log):
        observer = Observer(events=new_log())
        assert observer.begin_run(4, 1, 0, "A", []) == "r1"
        observer.end_run(1, 4, 0, 0, 0)
        assert observer.begin_run(4, 1, 0, "A", []) == "r2"
        observer.close()

    def test_end_run_absorbs_meters(self):
        observer = Observer()
        observer.begin_run(4, 1, 0, "A", [])
        observer.end_run(3, 4, 12, 10, 240)
        counters = observer.registry.counters()
        assert counters["net.messages"] == 12
        assert counters["net.non_null_messages"] == 10
        assert counters["net.bits"] == 240
        assert counters["runs"] == 1

    def test_close_dumps_counters_then_profile(self, new_log):
        log = new_log()
        observer = Observer(events=log)
        observer.count("x", 2)
        with observer.span("s"):
            pass
        observer.close()
        observer.close()  # idempotent
        records = read_log(log.path)
        kinds = [r["kind"] for r in records]
        assert kinds == ["counters", "profile"]
        assert records[0]["counters"] == {"x": 2}
        assert records[1]["nondeterministic"] is True
        assert "s" in records[1]["spans"]
        assert status_from_records(records)["degraded"] == []

    def test_eventless_emit_is_a_no_op(self):
        observer = Observer()
        observer.emit("round_start")  # nothing to write to
        observer.close()


class TestActivation:
    def test_default_is_null(self):
        assert obs_core.ACTIVE is None

    def test_activate_deactivate(self):
        observer = Observer()
        activate(observer)
        assert obs_core.ACTIVE is observer
        deactivate()
        assert obs_core.ACTIVE is None

    def test_observing_restores_previous(self):
        outer, inner = Observer(), Observer()
        activate(outer)
        with observing(inner) as current:
            assert current is inner
            assert obs_core.ACTIVE is inner
        assert obs_core.ACTIVE is outer

    def test_observing_closes_by_default(self, new_log):
        log = new_log()
        observer = Observer(events=log)
        with observing(observer):
            observer.count("x")
        assert [r["kind"] for r in read_log(log.path)] == ["counters"]

    def test_observing_close_false_keeps_it_open(self, new_log):
        log = new_log()
        observer = Observer(events=log)
        with observing(observer, close=False):
            observer.count("x")
        observer.emit("round_start")  # the sink is still open
        log.close()
        assert [r["kind"] for r in read_log(log.path)] == ["round_start"]
