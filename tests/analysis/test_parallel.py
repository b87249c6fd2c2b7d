"""The parallel sweep executor: determinism, portability, degradation."""

import os
import pickle
import select
import signal
import warnings

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    ProcessSummary,
    SweepCell,
    SweepContext,
    build_cells,
    portable_result,
)
from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate
from repro.obs import Observer, observing
from repro.obs.events import read_log
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process
from repro.types import BOTTOM, SystemConfig


def avalanche_grid(config):
    return dict(
        input_patterns=[
            {p: p % 2 for p in config.process_ids},
            {p: 1 for p in config.process_ids},
        ],
        fault_sets=[(1, 2), (6, 7)],
        adversary_makers=standard_adversary_makers(),
        seeds=(0, 1),
        run_full_rounds=6,
    )


def compact_grid(config):
    return dict(
        input_patterns=[{p: p % 2 for p in config.process_ids}],
        fault_sets=[(1,), (4,)],
        adversary_makers=standard_adversary_makers(),
        seeds=(0, 1),
        predicate=byzantine_agreement_predicate(),
        max_rounds=compact_ba_rounds(config.t, 1) + 1,
        sizer=compact_sizer(config, 2),
        is_null=payload_is_null,
    )


def signature(report):
    """Everything the determinism contract quantifies over."""
    return [
        (
            outcome.result.answer_vector(),
            outcome.result.metrics.total_bits,
            dict(sorted(outcome.result.decision_rounds.items())),
            outcome.adversary_name,
            outcome.seed,
            outcome.predicate_holds,
            outcome.error,
        )
        for outcome in report.outcomes
    ]


class TestWorkerCountInvariance:
    """sweep(workers=1) and sweep(workers=4) must be indistinguishable."""

    def test_avalanche_identical_across_worker_counts(self, config7):
        grid = avalanche_grid(config7)
        serial = sweep(avalanche_factory(), config7, workers=1, **grid)
        pooled = sweep(avalanche_factory(), config7, workers=4, **grid)
        assert signature(serial) == signature(pooled)
        assert serial.total_bits() == pooled.total_bits()
        assert serial.max_rounds() == pooled.max_rounds()

    def test_compact_ba_identical_across_worker_counts(self, config4):
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        grid = compact_grid(config4)
        serial = sweep(factory, config4, workers=1, **grid)
        pooled = sweep(factory, config4, workers=4, **grid)
        assert signature(serial) == signature(pooled)
        assert serial.all_hold() and pooled.all_hold()

    def test_reports_are_byte_identical(self, config4):
        """``workers=None`` is the serial path ``workers=1`` takes."""
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        grid = compact_grid(config4)
        blobs = {
            workers: pickle.dumps(sweep(factory, config4,
                                        workers=workers, **grid))
            for workers in (None, 1, 2, 3, 4)
        }
        assert len(set(blobs.values())) == 1

    def test_matches_legacy_serial_path(self, config4):
        """workers=None (the default serial path) agrees on every metric."""
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        grid = compact_grid(config4)
        legacy = sweep(factory, config4, **grid)
        pooled = sweep(factory, config4, workers=2, **grid)
        assert signature(legacy) == signature(pooled)


#: Module-level, so pickle fails on the attribute lookup by name (a
#: ``PicklingError``) rather than on a local object.
unpicklable = lambda: 0  # noqa: E731


class LambdaDecider(Process):
    """Decides a value no pickle can carry, in round 1."""

    def outgoing(self, round_number):
        return {}

    def receive(self, round_number, incoming):
        self.decide(("value", unpicklable), round_number)


def fake_chunks(monkeypatch, pid_of):
    """Run no cell: in this process and every child it forks, a chunk
    returns one ``"an outcome"`` blob per cell, 0.25 s busy, reported
    by pid ``pid_of(index of the chunk's first cell)``."""
    blob = pickle.dumps("an outcome")

    def run_chunk(context, cells, observed):
        return [blob] * len(cells), pid_of(cells[0].index), 0.25, {}

    monkeypatch.setattr(parallel, "_run_chunk", run_chunk)


def assert_no_child():
    """Every child the sweep forked is reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tiny_context(config):
    return SweepContext(
        factory=avalanche_factory(), config=config,
        adversary_makers=tuple(standard_adversary_makers()[:1]),
        judge=None, max_rounds=3, run_full_rounds=None,
        sizer=None, is_null=None,
    )


def tiny_cells(count):
    return [
        SweepCell(index=i, inputs={}, faulty=(), adversary_name="x",
                  adversary_index=0, seed=0)
        for i in range(count)
    ]


def one_cell_grid(config, faulty):
    return dict(
        input_patterns=[{p: p % 2 for p in config.process_ids}],
        fault_sets=[faulty],
        adversary_makers=standard_adversary_makers()[:1],
    )


class TestWireForm:
    """One standalone pickle per outcome, made where its cell ran."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outcomes_of_one_report_share_no_object(self, config7, workers):
        report = sweep(
            avalanche_factory(), config7, workers=workers,
            **avalanche_grid(config7),
        )
        first, second = report.outcomes[:2]
        assert first.result.config == second.result.config
        assert first.result.config is not second.result.config

    def test_unpicklable_outcome_fails_alike_serial_and_pooled(self, config4):
        def factory(process_id, config, value):
            return LambdaDecider(process_id, config)

        def failure(workers):
            with observing(Observer()) as observer:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    with pytest.raises(Exception) as caught:
                        sweep(
                            factory, config4, workers=workers, seeds=(0, 1),
                            max_rounds=2, **one_cell_grid(config4, (4,)),
                        )
            assert_no_child()
            return (
                caught.type,
                observer.registry.counter("sweep.pool.degraded"),
            )

        serial_error, serial_degraded = failure(1)
        pooled_error, pooled_degraded = failure(2)
        assert pooled_error is serial_error
        assert serial_degraded == 0
        # A PicklingError is a transport failure: the pool degrades to
        # the serial path first, which then fails the same way.
        transport = issubclass(serial_error, pickle.PicklingError)
        assert pooled_degraded == (1 if transport else 0)

    def test_an_outcome_carries_no_quadratic_table(self):
        """875 bytes; 5,073 when the meter kept a row per link."""
        config = SystemConfig(n=13, t=4)
        report = sweep(
            avalanche_factory(), config, workers=1, seeds=(0,),
            run_full_rounds=8, **one_cell_grid(config, (1, 2, 3, 4)),
        )
        (outcome,) = report.outcomes
        # Every correct sender reached every processor: 117 live links.
        links = (config.n - config.t) * config.n
        assert outcome.result.metrics.total_messages >= links
        assert len(pickle.dumps(outcome)) < 2000


class TestPoolTelemetry:
    @pytest.mark.parametrize("events", [True, False])
    def test_a_worker_has_one_slot_in_every_record(
        self, config4, monkeypatch, events, new_log
    ):
        """Slots follow chunk order; pid order never shows."""
        fake_chunks(monkeypatch, lambda first: 800 if first % 2 else 900)
        cells = tiny_cells(5)
        # one per chunk at workers=2: pids 900, 800, 900, 800, 900
        log = new_log() if events else None
        with observing(Observer(events=log)) as observer:
            outcomes = parallel.execute_cells(
                tiny_context(config4), cells, workers=2
            )
        assert outcomes == ["an outcome"] * 5
        assert_no_child()
        gauges = observer.registry.gauges()
        assert gauges["pool.worker.0.cells"] == 3  # pid 900, collected first
        assert gauges["pool.worker.1.cells"] == 2
        assert gauges["pool.worker.0.busy_s"] == 0.75
        assert gauges["pool.worker.1.busy_s"] == 0.5
        if events:
            records = read_log(log.path)
            samples = [
                record["worker"] for record in records
                if record["kind"] == "worker_sample"
            ]
            assert samples == [0, 1, 0, 1, 0]
            (summary,) = [
                record for record in records
                if record["kind"] == "workers"
            ]
            assert [w["cells"] for w in summary["workers"]] == [3, 2]


class TestCells:
    def test_build_cells_canonical_order(self, config4):
        makers = standard_adversary_makers()[:2]
        cells = build_cells(
            input_patterns=[{1: 0}, {1: 1}],
            fault_sets=[(1,), (2,)],
            adversary_makers=makers,
            seeds=(0, 7),
        )
        assert [cell.index for cell in cells] == list(range(16))
        # Innermost loop is seeds, then adversaries, faults, inputs.
        assert cells[0].seed == 0 and cells[1].seed == 7
        assert cells[0].adversary_name == cells[1].adversary_name
        assert cells[2].adversary_name != cells[0].adversary_name

    def test_cells_are_picklable(self):
        cell = SweepCell(
            index=3, inputs={1: 0, 2: 1}, faulty=(2,),
            adversary_name="silent", adversary_index=0, seed=5,
        )
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_chunking_covers_every_cell_in_order(self):
        cells = [
            SweepCell(index=i, inputs={}, faulty=(), adversary_name="x",
                      adversary_index=0, seed=0)
            for i in range(23)
        ]
        chunks = parallel._chunked(cells, workers=4)
        flattened = [cell for chunk in chunks for cell in chunk]
        assert flattened == cells
        assert all(chunk for chunk in chunks)


class TestPortability:
    def test_portable_result_replaces_processes_and_trace(self, config4):
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        result = run_protocol(
            factory, config4, {p: 0 for p in config4.process_ids},
            max_rounds=compact_ba_rounds(config4.t, 1) + 1,
            record_trace=True,
        )
        portable = portable_result(result)
        assert portable.trace is None
        assert set(portable.processes) == set(result.processes)
        for process_id, summary in portable.processes.items():
            assert isinstance(summary, ProcessSummary)
            assert summary.decision == result.decisions[process_id]
            assert summary.has_decided()
        # The quantitative surface is untouched.
        assert portable.answer_vector() == result.answer_vector()
        assert portable.correct_ids == result.correct_ids
        assert portable.metrics.total_bits == result.metrics.total_bits
        pickle.dumps(portable)  # closure-carrying original would raise

    def test_process_summary_undecided(self):
        summary = ProcessSummary(1, BOTTOM, None)
        assert not summary.has_decided()
        assert summary.snapshot() == {"decision": BOTTOM}

    @pytest.mark.parametrize("summary", [
        ProcessSummary(1, BOTTOM, None), ProcessSummary(3, (0, "v"), 4),
    ])
    def test_process_summary_round_trips_equal(self, summary):
        restored = pickle.loads(pickle.dumps(summary))
        assert type(restored) is ProcessSummary and restored == summary
        assert restored.has_decided() is summary.has_decided()


class TestGracefulDegradation:
    def test_no_fork_degrades_to_serial_with_warning(
        self, config4, monkeypatch
    ):
        monkeypatch.delattr(os, "fork")
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        grid = compact_grid(config4)
        with observing(Observer()) as observer:
            with pytest.warns(RuntimeWarning, match="fork"):
                degraded = sweep(factory, config4, workers=4, **grid)
        assert observer.registry.counter("sweep.pool.degraded") == 1
        reference = sweep(factory, config4, workers=1, **grid)
        assert pickle.dumps(degraded) == pickle.dumps(reference)

    def test_broken_pool_degrades_to_serial_with_warning(
        self, config4, monkeypatch
    ):
        def exploding_fork():
            raise OSError("cannot spawn worker")

        monkeypatch.setattr(os, "fork", exploding_fork)
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        grid = compact_grid(config4)
        with observing(Observer()) as observer:
            with pytest.warns(RuntimeWarning, match="degraded to serial"):
                degraded = sweep(factory, config4, workers=4, **grid)
        assert observer.registry.counter("sweep.pool.degraded") == 1
        reference = sweep(factory, config4, workers=1, **grid)
        assert pickle.dumps(degraded) == pickle.dumps(reference)
        assert_no_child()  # always cleaned up

    def test_protocol_errors_are_not_masked(self, config4):
        def exploding_factory(process_id, config, value):
            raise RuntimeError("factory exploded")

        context = SweepContext(
            factory=exploding_factory,
            config=config4,
            adversary_makers=tuple(standard_adversary_makers()[:1]),
            judge=None,
            max_rounds=5,
            run_full_rounds=None,
            sizer=None,
            is_null=None,
        )
        cells = build_cells(
            [{p: 0 for p in config4.process_ids}], [(1,)],
            standard_adversary_makers()[:1], (0,),
        )
        with pytest.raises(RuntimeError, match="factory exploded"):
            parallel.execute_cells(context, cells, workers=1)


class CellExploded(Exception):
    """Raised by a cell; module-level, so a child can pickle it home."""


def child_hook_factory(config, pipe, action):
    """A compact-BA factory that, in a forked child, tells the parent on
    ``pipe`` and then runs ``action``; the parent's first call waits up
    to 30 s for that word, so some child always holds a chunk."""
    parent = os.getpid()
    heard, told = pipe
    waited = []
    inner = compact_ba_factory(config, [0, 1], default=0, k=1)

    def factory(process_id, config, value):
        if os.getpid() != parent:
            os.write(told, b"!")
            action()
        elif not waited:
            waited.append(select.select([heard], [], [], 30.0))
        return inner(process_id, config, value)

    return factory


@pytest.fixture
def pipe():
    ends = os.pipe()
    yield ends
    for end in ends:
        os.close(end)


class TestFaultInjection:
    def test_a_child_killed_mid_chunk_degrades_to_serial(
        self, config4, pipe
    ):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        factory = child_hook_factory(config4, pipe, die)
        grid = compact_grid(config4)
        with observing(Observer()) as observer:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                degraded = sweep(factory, config4, workers=2, **grid)
        assert [str(w.message) for w in caught] == [
            "parallel sweep degraded to serial execution: "
            "a sweep worker died before returning its chunk"
        ]
        assert caught[0].category is RuntimeWarning
        assert observer.registry.counter("sweep.pool.degraded") == 1
        assert_no_child()
        reference = sweep(factory, config4, workers=1, **grid)
        assert pickle.dumps(degraded) == pickle.dumps(reference)

    def test_a_cell_raising_in_a_child_raises_its_serial_type(
        self, config4, pipe
    ):
        def explode():
            raise CellExploded("a cell raised in a child")

        grid = compact_grid(config4)
        with pytest.raises(CellExploded):
            sweep(
                lambda *args: explode(), config4, workers=1, **grid
            )
        factory = child_hook_factory(config4, pipe, explode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CellExploded, match="in a child"):
                sweep(factory, config4, workers=2, **grid)
        assert_no_child()
