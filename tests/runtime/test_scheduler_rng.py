"""Determinism contract of the async scheduler's RNG substreams.

The async backend samples logical delays from
``derive_rng(seed, "scheduler", salt, round)``.  Three properties make
that sampling safe to build on, and this module pins each:

* **Schedule determinism** — the same execution seed always yields the
  same per-round schedule: re-sampling is idempotent, and two fresh
  executions agree event for event.
* **Worker-count independence** — a pooled sweep under the async
  backend is byte-identical to the serial reference, because schedules
  key off each *cell's* seed, never off worker identity or dispatch
  order (same guarantee the fuzz campaign inherits).
* **Substream independence** — the scheduler's stream never collides
  with the adversary's: re-salting the schedule leaves every adversary
  choice (and hence the full result) untouched, and per-round keying
  makes schedules prefix-stable — round ``r``'s schedule cannot depend
  on how many rounds the execution ultimately runs, which is what
  makes a mid-run checkpoint resume schedule-faithful.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import standard_adversary_makers, sweep
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate
from repro.fuzz.campaign import replay_case
from repro.fuzz.case import FuzzCase
from repro.fuzz.protocols import get_spec
from repro.runtime.engine import run_protocol
from repro.runtime.rng import derive_rng
from repro.runtime.scheduler import AsyncScheduler
from repro.types import SystemConfig

CONFIG = SystemConfig(n=4, t=1)


def _bound_scheduler(seed, max_delay=3, salt=0, rounds=None):
    """Run a real execution and hand back its (bound) async scheduler."""
    scheduler = AsyncScheduler(max_delay=max_delay, salt=salt)
    spec = get_spec("avalanche")
    inputs = spec.sample_inputs(CONFIG, derive_rng(seed, "inputs"))
    run_protocol(
        spec.build(CONFIG),
        CONFIG,
        inputs,
        seed=seed,
        scheduler=scheduler,
        **spec.engine_arguments(CONFIG, rounds),
    )
    return scheduler


# -- schedule determinism ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    max_delay=st.integers(min_value=0, max_value=8),
    salt=st.integers(min_value=0, max_value=2**12),
    round_number=st.integers(min_value=1, max_value=6),
)
def test_same_seed_same_schedule(seed, max_delay, salt, round_number):
    """Two independent executions sample identical schedules — and
    re-sampling a round is idempotent (fresh substream per call)."""
    first = _bound_scheduler(seed, max_delay, salt)
    second = _bound_scheduler(seed, max_delay, salt)
    schedule = first.round_schedule(round_number)
    assert schedule == second.round_schedule(round_number)
    assert schedule == first.round_schedule(round_number)
    # Fault-free run: n senders x n correct receivers.
    assert len(schedule) == CONFIG.n * CONFIG.n
    assert all(0 <= delay <= max_delay for delay, *_ in schedule)


def test_schedule_varies_with_salt_and_round():
    scheduler = _bound_scheduler(5, max_delay=6, salt=0)
    other_salt = _bound_scheduler(5, max_delay=6, salt=1)
    assert scheduler.round_schedule(1) != other_salt.round_schedule(1)
    assert scheduler.round_schedule(1) != scheduler.round_schedule(2)


def test_schedules_are_prefix_stable():
    """Round r's schedule is independent of total execution length —
    the property a schedule-faithful checkpoint resume rests on."""
    short = _bound_scheduler(9, rounds=2)
    full = _bound_scheduler(9)
    for round_number in (1, 2, 3):
        assert short.round_schedule(round_number) == full.round_schedule(
            round_number
        )


# -- worker-count independence -----------------------------------------------


def _compact_grid():
    return dict(
        input_patterns=[{p: p % 2 for p in CONFIG.process_ids}],
        fault_sets=[(1,), (4,)],
        adversary_makers=standard_adversary_makers(),
        seeds=(0, 1),
        predicate=byzantine_agreement_predicate(),
        max_rounds=compact_ba_rounds(CONFIG.t, 1) + 1,
        sizer=compact_sizer(CONFIG, 2),
        is_null=payload_is_null,
    )


def test_async_sweep_byte_identical_for_any_worker_count():
    factory = compact_ba_factory(CONFIG, [0, 1], default=0, k=1)
    grid = _compact_grid()
    blobs = {
        workers: pickle.dumps(sweep(
            factory, CONFIG, workers=workers, scheduler="async:3:7", **grid
        ))
        for workers in (1, 2)
    }
    assert blobs[1] == blobs[2]


def test_async_sweep_matches_lockstep_sweep():
    """The backend axis composes with the executor axis: pooled async
    equals serial lockstep, byte for byte."""
    factory = compact_ba_factory(CONFIG, [0, 1], default=0, k=1)
    grid = _compact_grid()
    lockstep = pickle.dumps(
        sweep(factory, CONFIG, workers=1, scheduler="lockstep", **grid)
    )
    pooled_async = pickle.dumps(
        sweep(factory, CONFIG, workers=2, scheduler="async:5:2", **grid)
    )
    assert lockstep == pooled_async


# -- substream independence --------------------------------------------------


def test_scheduler_stream_disjoint_from_adversary_stream():
    """The derivation path, not luck, separates the streams."""
    scheduler_stream = derive_rng(7, "scheduler", 0, 1)
    adversary_stream = derive_rng(7, "adversary")
    assert not np.array_equal(
        scheduler_stream.integers(0, 2**31, size=16),
        adversary_stream.integers(0, 2**31, size=16),
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    salt=st.integers(min_value=1, max_value=2**10),
)
def test_resalting_never_perturbs_the_adversary(seed, salt):
    """Re-salting the schedule replays the *same* attack: the fuzz
    adversary's choices ride their own substream, so every deterministic
    quantity of the execution is identical."""
    spec = get_spec("compact-ba")
    inputs = spec.sample_inputs(CONFIG, derive_rng(seed, "inputs"))
    case = FuzzCase.build(
        protocol="compact-ba", n=4, t=1, seed=seed, inputs=inputs,
        faulty=(2,),
    )
    baseline = replay_case(case, scheduler="async:3:0")
    resalted = replay_case(case, scheduler=f"async:3:{salt}")
    assert baseline.result.decisions == resalted.result.decisions
    assert (
        baseline.result.metrics.total_bits
        == resalted.result.metrics.total_bits
    )
    assert baseline.violations == resalted.violations
