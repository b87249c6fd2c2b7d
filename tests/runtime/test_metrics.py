"""Tests for the communication meters."""

import pickle

import pytest

from repro.runtime.metrics import MessageMetrics, RoundUsage


class TestRoundUsage:
    def test_add_accumulates(self):
        usage = RoundUsage()
        usage.add(bits=10, non_null=True)
        usage.add(bits=0, non_null=False)
        assert usage.messages == 2
        assert usage.non_null_messages == 1
        assert usage.bits == 10


class TestMessageMetrics:
    def test_totals(self):
        metrics = MessageMetrics()
        metrics.record(1, sender=1, receiver=2, bits=8)
        metrics.record(1, sender=1, receiver=3, bits=8)
        metrics.record(2, sender=2, receiver=1, bits=4, non_null=False)
        assert metrics.total_bits == 20
        assert metrics.total_messages == 3
        assert metrics.total_non_null_messages == 2
        assert metrics.rounds_used == 2

    def test_round_breakdown(self):
        metrics = MessageMetrics()
        metrics.record(3, sender=1, receiver=2, bits=8)
        assert metrics.round_usage(3).bits == 8
        assert metrics.round_usage(1).bits == 0

    def test_sender_breakdown(self):
        metrics = MessageMetrics()
        metrics.record(1, sender=5, receiver=2, bits=8)
        metrics.record(2, sender=5, receiver=3, bits=8, non_null=False)
        assert metrics.sender_usage(5).messages == 2
        assert metrics.non_null_by_sender() == {5: 1}

    def test_bits_by_round_sorted(self):
        metrics = MessageMetrics()
        metrics.record(2, 1, 2, bits=4)
        metrics.record(1, 1, 2, bits=8)
        assert metrics.bits_by_round() == [(1, 8), (2, 4)]

    def test_merge(self):
        left, right = MessageMetrics(), MessageMetrics()
        left.record(1, 1, 2, bits=4)
        right.record(1, 2, 1, bits=6)
        right.record(2, 1, 2, bits=1, non_null=False)
        left.merge(right)
        assert left.total_bits == 11
        assert left.total_messages == 3
        assert left.round_usage(1).messages == 2

    def test_burst_equals_its_messages_recorded_one_by_one(self):
        """One summed add per sender per round is the per-message meter."""
        traffic = {  # (round, sender) -> [(receiver, bits, non_null)]
            (1, 1): [(1, 8, True), (2, 8, True), (3, 0, False)],
            (1, 2): [(1, 5, True)],
            (2, 1): [(2, 0, False), (3, 0, False)],
            (4, 3): [(1, 7, True), (2, 9, True)],
        }
        single, burst = MessageMetrics(), MessageMetrics()
        for (round_number, sender), messages in traffic.items():
            for receiver, bits, non_null in messages:
                single.record(round_number, sender, receiver, bits, non_null)
            burst.record_burst(
                round_number, sender, len(messages),
                sum(non_null for _, _, non_null in messages),
                sum(bits for _, bits, _ in messages),
            )

        def view(metrics):
            return (
                metrics.total_bits,
                metrics.total_messages,
                metrics.total_non_null_messages,
                metrics.rounds_used,
                metrics.bits_by_round(),
                [metrics.round_usage(r) for r in range(1, 6)],
                [metrics.sender_usage(s) for s in range(1, 5)],
                metrics.non_null_by_sender(),
                metrics.as_counters(),
            )

        assert view(burst) == view(single)
        assert pickle.dumps(burst) == pickle.dumps(single)
        assert burst.round_usage(1) == RoundUsage(4, 3, 21)
        assert burst.sender_usage(1) == RoundUsage(5, 2, 16)
        # ... and the two kinds of record merge alike, either way round.
        left, right = MessageMetrics(), MessageMetrics()
        left.merge(single)
        left.merge(burst)
        right.merge(burst)
        right.merge(single)
        assert view(left) == view(right)
        assert left.total_bits == 2 * single.total_bits
        assert left.sender_usage(1) == RoundUsage(10, 4, 32)

    def test_empty_metrics(self):
        metrics = MessageMetrics()
        assert metrics.total_bits == 0
        assert metrics.rounds_used == 0
        assert metrics.bits_by_round() == []


class TestSlots:
    """RoundUsage is __slots__-only: no per-instance dict on the hot path."""

    def test_no_instance_dict(self):
        usage = RoundUsage()
        with pytest.raises(AttributeError):
            usage.stray = 1  # type: ignore[attr-defined]
        assert not hasattr(usage, "__dict__")

    def test_equality_and_repr(self):
        assert RoundUsage(2, 1, 16) == RoundUsage(2, 1, 16)
        assert RoundUsage(2, 1, 16) != RoundUsage(2, 1, 17)
        assert "16" in repr(RoundUsage(2, 1, 16))

    def test_defaults_are_zero(self):
        usage = RoundUsage()
        assert (usage.messages, usage.non_null_messages, usage.bits) == (
            0, 0, 0,
        )


class TestPickling:
    """The meters cross a process boundary as their rows."""

    def test_round_usage_round_trips_equal(self):
        usage = RoundUsage(13, 9, 104)
        restored = pickle.loads(pickle.dumps(usage))
        assert type(restored) is RoundUsage and restored == usage
        assert b"non_null_messages" not in pickle.dumps(usage)

    def test_metrics_round_trip_equal_and_keep_accumulating(self):
        metrics = MessageMetrics()
        metrics.record_burst(1, 1, 4, 4, 32)
        metrics.record_burst(1, 2, 4, 0, 0)
        metrics.record_burst(3, 2, 2, 1, 9)
        restored = pickle.loads(pickle.dumps(metrics))
        for round_number in (1, 2, 3):
            assert restored.round_usage(round_number) == metrics.round_usage(
                round_number
            )
        for sender in (1, 2, 3):
            assert restored.sender_usage(sender) == metrics.sender_usage(
                sender
            )
        assert restored.bits_by_round() == metrics.bits_by_round()
        assert restored.non_null_by_sender() == metrics.non_null_by_sender()
        assert restored.as_counters() == metrics.as_counters()
        assert restored.rounds_used == metrics.rounds_used
        # Still a live meter: new rows appear on first use.
        restored.record_burst(4, 3, 1, 1, 8)
        assert restored.round_usage(4) == RoundUsage(1, 1, 8)
        assert restored.total_bits == metrics.total_bits + 8

    def test_empty_metrics_round_trip(self):
        restored = pickle.loads(pickle.dumps(MessageMetrics()))
        assert restored.total_bits == 0 and restored.bits_by_round() == []
