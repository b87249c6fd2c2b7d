"""Shared expansion views against the per-processor expansion path.

Every production processor here has a
:class:`tests.compact.reference_expansion.ReferenceProcess` twin that
receives what it receives and keeps its own, ``learn``-fed OUT tables
and images.  After every round the shared view must hold the twin's
OUT tables (the same decision objects, in the same order), the same
typed image for every leaf either side has imaged, the same rebase
verdicts, and the processor's CORE must be the twin's — under faults
that split views as well as faults that do not.
"""

import pytest

import repro.compact.protocol as compact_protocol
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.compact.protocol import CompactProcess
from repro.types import BOTTOM, SystemConfig
from tests.adversary.compact_attacks import AvalancheEquivocator, SpliceAdversary
from tests.compact.reference_expansion import ReferenceProcess
from tests.obs.test_instrumented_runs import RevotingAdversary


def check_view(process, twin, round_number):
    view, reference = process.expansion, twin.expansion
    # OUT tables: the same decisions, bound in the same order.
    assert list(view._bindings) == list(reference._bindings)
    for key, value in view._bindings.items():
        assert value is reference._bindings[key]
    # Typed images: both sides intern into one store, so equal images
    # are one object, and ``True`` could never pass for ``1``.
    for boundary, images in view._images.items():
        for (_, leaf), (image, _) in images.items():
            assert image is reference.expand_scalar(boundary, leaf)
    for boundary, images in reference._images.items():
        for typed_leaf, (image, _) in images.items():
            assert view._images[boundary][typed_leaf][0] is image
    block = process.schedule.block(round_number)
    if block > 1 and process.schedule.is_block_start(round_number):
        assert view.rebase_mask(block) == tuple(
            reference.expand_scalar(block, q) is not BOTTOM
            for q in process.config.process_ids
        )
    assert process.core is twin.core
    assert process.decision == twin.decision


class ShadowedProcess(CompactProcess):
    """A production processor with its per-processor twin beside it."""

    checks = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.twin = ReferenceProcess(*args, **kwargs)

    def receive(self, round_number, incoming):
        super().receive(round_number, incoming)
        self.twin.receive(round_number, dict(incoming))
        check_view(self, self.twin, round_number)
        ShadowedProcess.checks += 1


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "maker",
    [None, AvalancheEquivocator, SpliceAdversary, RevotingAdversary],
    ids=["fault-free", "avalanche-equivocator", "splice", "revoting"],
)
def test_shared_views_equal_the_per_processor_path(maker, k, monkeypatch):
    config = SystemConfig(n=7, t=2)
    monkeypatch.setattr(compact_protocol, "CompactProcess", ShadowedProcess)
    monkeypatch.setattr(ShadowedProcess, "checks", 0)
    inputs = {p: p % 2 for p in config.process_ids}
    result = run_compact_byzantine_agreement(
        config, inputs, value_alphabet=[0, 1], k=k,
        adversary=maker([3, 6]) if maker else None,
    )
    assert result.decisions
    correct = len(result.processes)
    assert ShadowedProcess.checks == correct * result.rounds
