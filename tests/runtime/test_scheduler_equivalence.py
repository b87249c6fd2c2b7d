"""Schedule-invariance conformance suite.

The round engine's contract (docs/runtime.md): for any
communication-closed protocol, every admissible schedule — lockstep or
asynchronous, any delay bound, any schedule salt — produces the
*identical* ``ExecutionResult``.  The asynchronous schedules come from
the test-side reference, ``tests/runtime/reference_async.py``.  This
suite is that contract, executable:

* every registered protocol runs under lockstep and a
  spread of async schedules, and the results must be pickle-identical
  (checkpoint serialisation — the saved form minus unpicklable live
  processes);
* hypothesis quantifies over ``(seed, max_delay, salt)`` and asserts
  the metamorphic invariants — decisions, ``total_bits``, rounds, and
  oracle violation sets never move;
* async deliver traces still satisfy the dynamic closedness checker;
* and a deliberately NON-closed fixture (processes leaking state
  through an out-of-band shared list) demonstrably *diverges* across
  schedules — the negative control proving the suite can tell schedules
  apart when, and only when, the protocol breaks the canonical form.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.campaign import replay_case
from repro.fuzz.case import FuzzCase
from repro.fuzz.protocols import get_spec, protocol_names
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.runtime.rng import derive_rng
from repro.types import BOTTOM, SystemConfig

from tests.conftest import canonical_bytes
from tests.runtime.reference_async import async_schedule, schedule_for

N, T = 4, 1

#: Async schedules spread across the delay/salt axes.
ASYNC_SPECS = ("async", "async:1", "async:5", "async:3:17", "async:7:101")


def catalog_case(protocol, seed, faulty=(1,)):
    """A case at the smallest system the protocol supports for ``T``."""
    spec = get_spec(protocol)
    config = SystemConfig(n=spec.resilience * T + 1, t=T)
    inputs = spec.sample_inputs(config, derive_rng(seed, "inputs", protocol))
    return FuzzCase.build(
        protocol=protocol, n=config.n, t=T, seed=seed, inputs=inputs,
        faulty=faulty,
    )


def replay(case, spec):
    with schedule_for(spec):
        return replay_case(case)


# -- catalog equivalence -----------------------------------------------------


@pytest.mark.parametrize("protocol", protocol_names())
@pytest.mark.parametrize("backend", ASYNC_SPECS)
def test_catalog_protocol_invariant_under_async(protocol, backend):
    """Every catalog protocol: async result pickle-identical to lockstep."""
    case = catalog_case(protocol, seed=2026)
    reference = replay_case(case)
    outcome = replay(case, backend)
    assert outcome.violations == reference.violations
    assert canonical_bytes(outcome.result) == canonical_bytes(
        reference.result
    )


@pytest.mark.parametrize("protocol", protocol_names())
def test_catalog_protocol_invariant_fault_free(protocol):
    case = catalog_case(protocol, seed=7, faulty=())
    reference = replay_case(case)
    outcome = replay(case, "async:4:9")
    assert canonical_bytes(outcome.result) == canonical_bytes(
        reference.result
    )


# -- metamorphic properties (hypothesis) -------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    max_delay=st.integers(min_value=0, max_value=6),
    salt=st.integers(min_value=0, max_value=2**10),
    protocol=st.sampled_from(("avalanche", "compact-ba")),
)
def test_schedule_permutations_leave_results_unchanged(
    seed, max_delay, salt, protocol
):
    """Any (delay bound, salt) pair is an admissible-schedule identity."""
    case = catalog_case(protocol, seed=seed)
    reference = replay_case(case)
    outcome = replay(case, f"async:{max_delay}:{salt}")
    assert outcome.result.decisions == reference.result.decisions
    assert outcome.result.rounds == reference.result.rounds
    assert (
        outcome.result.metrics.total_bits
        == reference.result.metrics.total_bits
    )
    assert outcome.violations == reference.violations
    assert canonical_bytes(outcome.result) == canonical_bytes(
        reference.result
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    salt_a=st.integers(min_value=0, max_value=2**10),
    salt_b=st.integers(min_value=0, max_value=2**10),
)
def test_two_async_schedules_agree_with_each_other(seed, salt_a, salt_b):
    """Backend invariance is transitive: any two async schedules agree."""
    case = catalog_case("eig", seed=seed)
    a = replay(case, f"async:3:{salt_a}")
    b = replay(case, f"async:5:{salt_b}")
    assert canonical_bytes(a.result) == canonical_bytes(b.result)


# -- async traces stay closed ------------------------------------------------


@pytest.mark.parametrize("protocol", ("avalanche", "compact-ba", "eig"))
def test_async_deliver_traces_pass_closedness(protocol, new_log):
    """Round skew reorders deliveries, never leaks them across rounds."""
    import repro.obs.core as _obs
    from repro.obs.events import read_log
    from repro.obs.trace import check_closedness

    from tests.obs.causal_dag import build_dags

    case = catalog_case(protocol, seed=31)
    log = new_log()
    with _obs.observing(_obs.Observer(events=log, spans=False)):
        replay(case, "async:4:2")
    records = read_log(log.path)
    assert any(dag.deliver_edges() for dag in build_dags(records)), (
        "the event log recorded no deliver edges"
    )
    assert check_closedness(records) == []


def test_async_actually_reorders_state_changes():
    """The diagnostic counter proves schedules are genuinely permuted.

    Equivalence tests would pass vacuously if the reference secretly
    ran in lockstep order; this pins that it does not.
    """
    spec = get_spec("avalanche")
    config = SystemConfig(n=N, t=T)
    inputs = spec.sample_inputs(config, derive_rng(11, "inputs"))
    with async_schedule(max_delay=3, salt=0) as networks:
        run_protocol(
            spec.build(config),
            config,
            inputs,
            seed=11,
            **spec.engine_arguments(config),
        )
    (network,) = networks
    assert network.reordered_state_changes > 0
    assert network.delays_sampled > 0


# -- the negative control ----------------------------------------------------


class _OrderLeakProcess(Process):
    """A deliberately NON-communication-closed processor.

    Correct processes share one mutable list (an out-of-band channel —
    exactly what the canonical form forbids) and decide on the order
    their state changes happen to run in.  Lockstep runs receivers in
    processor-id order; an async schedule runs them in
    delivery-completion order, so the decision is schedule-visible.
    """

    __slots__ = ("shared",)

    def __init__(self, process_id, config, shared):
        super().__init__(process_id, config)
        self.shared = shared

    def outgoing(self, round_number):
        return broadcast(("ping", self.process_id), self.config)

    def receive(self, round_number, incoming):
        self.shared.append(self.process_id)
        self.decide(tuple(self.shared), round_number)


def _order_leak_factory():
    shared = []

    def factory(process_id, config, value):
        return _OrderLeakProcess(process_id, config, shared)

    return factory


def _run_order_leak(spec):
    config = SystemConfig(n=4, t=0)
    inputs = {process_id: 0 for process_id in config.process_ids}
    with schedule_for(spec):
        return run_protocol(_order_leak_factory(), config, inputs, seed=11)


def test_non_closed_fixture_diverges_across_backends():
    """Negative control: schedules ARE distinguishable — by exactly the
    protocols the canonical form rules out."""
    reference = _run_order_leak("lockstep")
    assert reference.decisions == {
        1: (1,), 2: (1, 2), 3: (1, 2, 3), 4: (1, 2, 3, 4),
    }
    diverged = _run_order_leak("async:3:0")
    assert diverged.decisions != reference.decisions


@pytest.mark.parametrize("salt", range(4))
def test_non_closed_fixture_diverges_for_every_salt(salt):
    # At n=4 a delay bound of 3 leaves salts 1 and 2 in processor-id
    # order; 5 permutes all four.
    reference = _run_order_leak("lockstep")
    assert _run_order_leak(f"async:5:{salt}").decisions != reference.decisions


def test_zero_delay_async_degenerates_to_lockstep_order():
    """With max_delay=0 every event carries delay 0 and the stable heap
    order (sender-major, receiver ascending) makes receivers complete
    in processor-id order — even the leaky fixture cannot tell."""
    reference = _run_order_leak("lockstep")
    degenerate = _run_order_leak("async:0")
    assert degenerate.decisions == reference.decisions


def test_results_carry_no_backend_field():
    """ExecutionResult must stay schedule-anonymous: cross-schedule
    pickle identity is the acceptance gate, so the result cannot record
    which schedule produced it."""
    field_names = {
        field.name for field in dataclasses.fields(_run_order_leak("lockstep"))
    }
    assert "scheduler" not in field_names
    assert BOTTOM not in field_names  # guard the guard: set is non-trivial
