"""RoundContext must expose correct traffic read-only.

The network delivers from the same per-sender dicts *after* the
adversary speaks, so a strategy writing through the context would
silently corrupt correct processors' sends.  Both the public
``correct_outgoing`` mapping and its per-sender rows are mappingproxy
views: writes raise ``TypeError`` and the underlying dicts stay
intact, and a ``Broadcast`` row's slots cannot be reassigned.
"""

import pytest

from repro.adversary.base import RoundContext
from repro.runtime.node import broadcast
from repro.types import BOTTOM, SystemConfig


def _context():
    config = SystemConfig(n=4, t=1)
    outgoing = {
        1: {pid: "one" for pid in config.process_ids},
        3: {pid: "three" for pid in config.process_ids},
    }
    inputs = {pid: 0 for pid in config.process_ids}
    context = RoundContext(config, 1, outgoing, {}, inputs)
    return context, outgoing


def test_correct_outgoing_is_exposed():
    context, _ = _context()
    assert set(context.correct_outgoing) == {1, 3}
    assert context.correct_outgoing[1][2] == "one"
    assert context.correct_message(3, 4) == "three"
    assert context.correct_message(2, 4) is BOTTOM  # no such sender


def test_top_level_mapping_rejects_writes():
    context, outgoing = _context()
    with pytest.raises(TypeError):
        context.correct_outgoing[1] = {}
    with pytest.raises(TypeError):
        del context.correct_outgoing[3]
    assert outgoing[1][2] == "one"


def test_per_sender_rows_reject_writes():
    context, outgoing = _context()
    with pytest.raises(TypeError):
        context.correct_outgoing[1][2] = "forged"
    # mappingproxy omits mutators entirely: no .clear, no .pop, ...
    assert not hasattr(context.correct_outgoing[3], "clear")
    # The engine's delivery dicts are uncorrupted.
    assert outgoing[1] == {pid: "one" for pid in (1, 2, 3, 4)}
    assert outgoing[3] == {pid: "three" for pid in (1, 2, 3, 4)}


def test_private_view_is_also_read_only():
    """Even reaching for the underscore attribute cannot mutate sends."""
    context, outgoing = _context()
    with pytest.raises(TypeError):
        context._correct_outgoing[1] = {}
    with pytest.raises(TypeError):
        context._correct_outgoing[1][4] = "forged"
    assert outgoing[1][4] == "one"


def test_broadcast_rows_cannot_be_retargeted():
    """A ``Broadcast`` refuses item edits, but its ``message`` slot is
    what delivery reads: through the context it cannot be reassigned."""
    config = SystemConfig(n=4, t=1)
    burst = broadcast("one", config)
    context = RoundContext(config, 1, {1: burst}, {}, {})
    for row in (context.correct_outgoing[1], context._correct_outgoing[1]):
        for name in ("message", "process_ids"):
            with pytest.raises(AttributeError):
                setattr(row, name, "forged")
        with pytest.raises(TypeError):
            row[2] = "forged"
        assert dict(row) == {pid: "one" for pid in config.process_ids}
    assert burst.message == "one"
    assert burst.process_ids is config.process_ids


def test_inputs_are_read_only():
    context, _ = _context()
    with pytest.raises(TypeError):
        context.inputs[1] = 1
    assert context.inputs == {pid: 0 for pid in (1, 2, 3, 4)}
