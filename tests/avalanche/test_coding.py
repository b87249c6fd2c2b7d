"""Tests for the null-message coding convention (Section 4)."""

from repro.avalanche.coding import NULL_MESSAGE, NullEncoder, is_null_message
from repro.types import BOTTOM, SystemConfig, is_bottom
from tests.compact.reference_agreement_batch import NullDecoder


class TestEncoder:
    def test_first_message_passes_through(self):
        encoder = NullEncoder()
        assert encoder.encode("v") == "v"

    def test_repeat_becomes_null(self):
        encoder = NullEncoder()
        encoder.encode("v")
        assert is_null_message(encoder.encode("v"))

    def test_change_resets(self):
        encoder = NullEncoder()
        encoder.encode("v")
        encoder.encode("v")
        assert encoder.encode("w") == "w"
        assert is_null_message(encoder.encode("w"))

    def test_bottom_repeats_compress_too(self):
        encoder = NullEncoder()
        assert encoder.encode(BOTTOM) is BOTTOM
        assert is_null_message(encoder.encode(BOTTOM))


class TestDecoder:
    """The receiver side, as the test-only dense batch oracle keeps it
    (production holds the decoded votes in the batch's matrix)."""

    def test_real_values_remembered_per_sender(self):
        decoder = NullDecoder()
        assert decoder.decode(1, "a") == "a"
        assert decoder.decode(2, "b") == "b"
        assert decoder.decode(1, NULL_MESSAGE) == "a"
        assert decoder.decode(2, NULL_MESSAGE) == "b"

    def test_null_before_any_value_is_bottom(self):
        decoder = NullDecoder()
        assert is_bottom(decoder.decode(1, NULL_MESSAGE))

    def test_roundtrip_with_encoder(self):
        encoder, decoder = NullEncoder(), NullDecoder()
        stream = ["v", "v", "v", BOTTOM, BOTTOM, "w", "w"]
        decoded = [decoder.decode(1, encoder.encode(item)) for item in stream]
        assert decoded == stream


class TestThreeNonNullBound:
    """Each correct processor sends at most 3 non-null messages."""

    def test_bound_over_adversarial_executions(self):
        from repro.adversary import VoteSplitterAdversary
        from repro.avalanche.protocol import avalanche_factory
        from repro.runtime.engine import run_protocol

        config = SystemConfig(n=7, t=2)
        for pattern in range(4):
            inputs = {
                p: ("v" if (p + pattern) % 3 else "w")
                for p in config.process_ids
            }
            result = run_protocol(
                avalanche_factory(),
                config,
                inputs,
                adversary=VoteSplitterAdversary([1, 2]),
                run_full_rounds=12,
                record_trace=True,
            )
            # Reconstruct each correct processor's broadcast stream and
            # count the value changes an encoder would transmit.
            for process_id in result.processes:
                stream = [
                    envelope.payload
                    for envelope in result.trace.messages_from(process_id)
                    if envelope.receiver == process_id  # one copy per round
                ]
                encoder = NullEncoder()
                non_null = sum(
                    0 if is_null_message(encoder.encode(item)) else 1
                    for item in stream
                )
                assert non_null <= 3, (process_id, stream)

    def test_null_message_singleton_pickles(self):
        import pickle

        assert pickle.loads(pickle.dumps(NULL_MESSAGE)) is NULL_MESSAGE
