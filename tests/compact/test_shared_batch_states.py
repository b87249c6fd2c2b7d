"""Correct processors that hear the same votes share one batch state.

An ``AgreementBatch`` is a per-processor pointer into immutable
``_BatchState`` objects: a step follows the memo entry for the round's
components and clones-and-steps only on a miss.  These tests pin what
makes that safe — one state per view and one clone-and-step per distinct
view, oracle equality where views split, no ``id`` reuse across memo
entries, nothing kept alive after a run — and that ``outgoing_votes()``
is a read.  The expansion view memoised on those states is held to the
same: one view per round where no fault splits the states, none alive
after the run, no undefined verdict carried into the next view, and no
reported decision that moves.
"""

import gc
from collections import defaultdict

import pytest

import repro.compact.expansion as expansion
import repro.compact.subprotocol as subprotocol
from repro.adversary.compact_attacks import AvalancheEquivocator
from repro.analysis.sweeps import standard_adversary_makers
from repro.avalanche.coding import NULL_MESSAGE
from repro.avalanche.protocol import AvalancheInstance, standard_thresholds
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.payload import CompactPayload
from repro.compact.protocol import CompactProcess
from repro.compact.subprotocol import AgreementBatch
from repro.errors import ProtocolViolation
from repro.types import BOTTOM, SystemConfig
from tests.compact.reference_agreement_batch import ReferenceAgreementBatch
from tests.compact.test_agreement_batch_equivalence import state, typed
from tests.obs.test_instrumented_runs import RevotingAdversary


@pytest.fixture
def config():
    return SystemConfig(n=4, t=1)


@pytest.fixture
def quorum(config):
    return standard_thresholds(config)


def live_states():
    """Batch states and the expansion views memoised on them."""
    gc.collect()
    return [
        o for o in gc.get_objects()
        if type(o) in (subprotocol._BatchState, expansion.ExpansionState)
    ]


def recording_steps(monkeypatch):
    """Record ``(boundary, rounds_stepped) -> [state after the step]`` for
    every batch step, and count the clone-and-step path."""
    after = defaultdict(list)
    computed = []
    step, successor = AgreementBatch.step, subprotocol._BatchState.successor

    def recorded_step(batch, votes_by_sender):
        decided = step(batch, votes_by_sender)
        after[batch.boundary, batch.rounds_stepped].append(batch._state)
        return decided

    def counted_successor(batch_state, components):
        computed.append(batch_state)
        return successor(batch_state, components)

    monkeypatch.setattr(AgreementBatch, "step", recorded_step)
    monkeypatch.setattr(
        subprotocol._BatchState, "successor", counted_successor
    )
    return after, computed


def test_fault_free_processors_share_every_state(monkeypatch):
    config = SystemConfig(n=7, t=2)
    assert not live_states()
    after, computed = recording_steps(monkeypatch)
    inputs = {p: p % 2 for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=1
    )
    assert result.decisions
    assert after
    for states in after.values():
        assert len(states) == config.n
        assert len({id(s) for s in states}) == 1
    # One view per (boundary, step): the clone-and-step path ran once each.
    assert len(computed) == len(after)


class ShadowedBatch(AgreementBatch):
    """A production batch with the dense oracle stepped beside it."""

    def __init__(self, config, boundary, inputs, thresholds):
        super().__init__(config, boundary, inputs, thresholds)
        self.dense = ReferenceAgreementBatch(
            config, boundary, inputs, thresholds
        )
        self.check_outgoing()

    def check_outgoing(self):
        assert typed(self.outgoing_votes()) == typed(
            self.dense.outgoing_votes()
        )

    def step(self, votes_by_sender):
        decided = super().step(votes_by_sender)
        assert typed(decided) == typed(self.dense.step(dict(votes_by_sender)))
        assert state(self) == state(self.dense)
        assert self.decided_subjects() == self.dense.decided_subjects()
        self.check_outgoing()
        return decided


def run_shadowed(monkeypatch, adversary):
    """A compact BA run at n = 7 whose every batch is shadowed by the
    dense oracle; returns the recorded states per (boundary, step)."""
    import repro.compact.protocol as compact_protocol

    config = SystemConfig(n=7, t=2)
    monkeypatch.setattr(compact_protocol, "AgreementBatch", ShadowedBatch)
    after, computed = recording_steps(monkeypatch)
    inputs = {p: p % 2 for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=1, adversary=adversary
    )
    assert result.decisions
    assert len(computed) >= len(after)
    return [len({id(s) for s in states}) for states in after.values()]


@pytest.mark.parametrize("maker", ["splitter", "revoting"])
def test_split_views_still_equal_the_dense_oracle(maker, monkeypatch):
    """Senders that tell receivers different things split the
    processors' states; each still steps as the dense batch would,
    round by round."""
    makers = dict(standard_adversary_makers(), revoting=RevotingAdversary)
    views = run_shadowed(monkeypatch, makers[maker]([6, 7]))
    assert max(views) > 1


def test_an_avalanche_equivocator_splits_no_view(monkeypatch):
    """It hands each receiver another correct donor's votes — but
    processors that share a state send that state's one vote tuple, so
    every donor's votes are the same object and no view splits."""
    views = run_shadowed(monkeypatch, AvalancheEquivocator([6, 7]))
    assert set(views) == {1}


def test_a_freed_component_never_matches_an_old_memo_entry(config, quorum):
    """The memo keeps the components it was keyed on, so a new tuple
    cannot take a keyed one's ``id`` and inherit its transition."""
    inputs = {q: "v" for q in config.process_ids}
    first = AgreementBatch(config, 2, inputs, quorum)
    second = AgreementBatch(config, 2, inputs, quorum)
    dense = ReferenceAgreementBatch(config, 2, inputs, quorum)
    assert first._state is second._state
    nulls = (NULL_MESSAGE,) * config.n
    component = tuple(["a"] * config.n)  # built at run time, freeable
    first.step({1: component, 2: component, 3: component, 4: nulls})
    keyed = id(component)
    del component
    replacement = tuple(["b"] * config.n)
    votes = {1: replacement, 2: replacement, 3: replacement, 4: nulls}
    assert typed(second.step(dict(votes))) == typed(dense.step(dict(votes)))
    assert state(second) == state(dense)
    assert second._state is not first._state
    assert id(replacement) != keyed


def test_no_state_outlives_its_run():
    config = SystemConfig(n=7, t=2)
    inputs = {p: p % 2 for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=1,
        adversary=AvalancheEquivocator([6, 7]),
    )
    assert live_states()  # the result's processors still point at some
    del result
    assert not live_states()
    assert not subprotocol._ROOTS
    assert not expansion._EMPTY


def test_outgoing_votes_is_a_read(config, quorum):
    batch = AgreementBatch(
        config, 2, {q: ("v", q) for q in config.process_ids}, quorum
    )
    assert batch.outgoing_votes() is batch.outgoing_votes()
    votes = batch.outgoing_votes()
    batch.step({s: votes for s in config.process_ids})
    assert batch.outgoing_votes() is batch.outgoing_votes()


def test_fault_free_processors_share_one_view_per_round(monkeypatch):
    config = SystemConfig(n=7, t=2)
    held = defaultdict(list)  # round -> each processor's view after it
    sent = defaultdict(list)  # round -> each batch holder's next payload
    receive = CompactProcess.receive

    def recorded(process, round_number, incoming):
        receive(process, round_number, incoming)
        held[round_number].append(process.expansion)
        if process._batches:
            sent[round_number].append(process._payload)

    monkeypatch.setattr(CompactProcess, "receive", recorded)
    inputs = {p: p % 2 for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=1
    )
    assert result.decisions
    for views in held.values():
        assert len(views) == config.n
        assert len({id(view) for view in views}) == 1
    # A round that decides nothing keeps the view it had.
    distinct = {id(view) for views in held.values() for view in views}
    assert 1 < len(distinct) < len(held)
    # Same batch states and the same CORE: one payload object is sent.
    assert sent
    for payloads in sent.values():
        assert len(payloads) == config.n
        assert len({id(payload) for payload in payloads}) == 1


def _voting(config, votes):
    """Every sender's payload casting ``votes`` in the boundary-2 batch."""
    return {
        sender: CompactPayload(main=BOTTOM, votes=((2, votes),))
        for sender in config.process_ids
    }


def test_an_undefined_verdict_is_never_inherited(config):
    """Subject 4's instance decides only after processor 1 asked for a
    rebase: the next view defines its image, though the previous view's
    rebase mask said undefined."""
    process = CompactProcess(1, config, 0, k=1, value_alphabet=[0, 1])
    cores = {1: (0, 0, 0, 0), 2: (1, 1, 1, 1), 3: (0, 1, 0, 1), 4: (1, 0, 1, 0)}
    process._stage(1, {
        q: CompactPayload(main=core, votes=()) for q, core in cores.items()
    })
    staged = [process._store.intern(cores[q]) for q in config.process_ids]
    for _ in range(2):  # subjects 1-3 adopt, then decide; 4 hears nothing
        process._side_channel(_voting(config, tuple(staged[:3]) + (BOTTOM,)))
    process._rebase(2, {})
    assert process.core == (1, 2, 3, 1)
    before = process.expansion
    process._side_channel(_voting(config, tuple(staged)))
    assert process.expansion is not before
    assert process.expansion.out_table(2)[4] is staged[3]
    process._rebase(2, {})
    assert process.core == (1, 2, 3, 4)
    assert before.rebase_mask(2) == (True, True, True, False)


def test_a_reported_decision_that_moves_raises(config, quorum, monkeypatch):
    """OUT entries are read off reported decisions, so a decision that
    changes between a state and its successor fails closed."""
    batch = AgreementBatch(config, 2, {q: "v" for q in config.process_ids}, quorum)

    def votes():  # fresh tuples: every row is dirty, every instance steps
        return {s: tuple(["v"] * config.n) for s in config.process_ids}

    batch.step(votes())
    batch.step(votes())
    assert batch.decided_subjects() == config.process_ids
    step = AvalancheInstance.step

    def moving(instance, row):
        step(instance, row)
        instance.decision = ("moved",)

    monkeypatch.setattr(AvalancheInstance, "step", moving)
    with pytest.raises(ProtocolViolation):
        batch.step(votes())
