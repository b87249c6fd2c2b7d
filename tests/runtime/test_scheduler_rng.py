"""Determinism contract of the asynchronous reference's schedules.

``tests/runtime/reference_async.py`` samples logical delays from
``derive_rng(salt, "scheduler", round)``.  Two properties make that
sampling safe to build on, and this module pins each:

* **Schedule determinism** — the same ``(max_delay, salt)`` always
  yields the same per-round schedule: re-sampling is idempotent, and
  two fresh executions agree event for event.
* **Prefix stability** — per-round keying means round ``r``'s schedule
  cannot depend on how many rounds the execution ultimately runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.protocols import get_spec
from repro.runtime.engine import run_protocol
from repro.runtime.rng import derive_rng
from repro.types import SystemConfig

from tests.runtime.reference_async import async_schedule

CONFIG = SystemConfig(n=4, t=1)


def _network(seed, max_delay=3, salt=0, rounds=None):
    """Run a real execution and hand back its asynchronous network."""
    spec = get_spec("avalanche")
    inputs = spec.sample_inputs(CONFIG, derive_rng(seed, "inputs"))
    with async_schedule(max_delay=max_delay, salt=salt) as networks:
        run_protocol(
            spec.build(CONFIG),
            CONFIG,
            inputs,
            seed=seed,
            **spec.engine_arguments(CONFIG, rounds),
        )
    (network,) = networks
    return network


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
    first = _network(seed, max_delay, salt)
    second = _network(seed, max_delay, salt)
    schedule = first.round_schedule(round_number)
    assert schedule == second.round_schedule(round_number)
    assert schedule == first.round_schedule(round_number)
    # Fault-free run: n senders x n correct receivers.
    assert len(schedule) == CONFIG.n * CONFIG.n
    assert all(0 <= delay <= max_delay for delay, *_ in schedule)


def test_schedule_varies_with_salt_and_round():
    network = _network(5, max_delay=6, salt=0)
    other_salt = _network(5, max_delay=6, salt=1)
    assert network.round_schedule(1) != other_salt.round_schedule(1)
    assert network.round_schedule(1) != network.round_schedule(2)


def test_schedules_are_prefix_stable():
    """Round r's schedule is independent of total execution length."""
    short = _network(9, rounds=2)
    full = _network(9)
    for round_number in (1, 2, 3):
        assert short.round_schedule(round_number) == full.round_schedule(
            round_number
        )
