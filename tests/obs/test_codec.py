"""The tagged-JSON codec: full-fidelity value round-trips."""

import json

import pytest

from repro.agreement.crusader import SENDER_FAULTY
from repro.arrays.store import MAX_DEPTH
from repro.avalanche.coding import NULL_MESSAGE
from repro.compact.crash_variant import CRASHED
from repro.compact.payload import CompactPayload
from repro.obs.codec import decode_value, encode_value
from repro.types import BOTTOM


def roundtrip(value):
    encoded = encode_value(value)
    json.dumps(encoded)  # must be plain JSON all the way down
    return decode_value(encoded)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -7, "x", "", 1.5, 0.1, float("inf")],
    )
    def test_scalars(self, value):
        assert roundtrip(value) == value

    def test_bool_stays_bool(self):
        assert roundtrip(True) is True  # not 1

    def test_nested_structures(self):
        value = {
            "a": (1, (2, BOTTOM), [3.5, None]),
            2: frozenset({(1,), (2,)}),
        }
        assert roundtrip(value) == value

    def test_sets_and_frozensets_keep_their_type(self):
        assert roundtrip({1, 2}) == {1, 2}
        assert isinstance(roundtrip({1, 2}), set)
        assert isinstance(roundtrip(frozenset({1})), frozenset)

    def test_set_encoding_is_canonical(self):
        # member order must not leak into the encoded form
        assert encode_value(frozenset({3, 1, 2})) == {"fs": [1, 2, 3]}

    @pytest.mark.parametrize(
        "singleton", [BOTTOM, NULL_MESSAGE, CRASHED, SENDER_FAULTY]
    )
    def test_singletons_decode_to_the_same_object(self, singleton):
        assert roundtrip(singleton) is singleton

    def test_sentinel_tags_on_disk_are_pinned(self):
        # TRACE_FORMAT_VERSION 1 files and the fuzz corpus carry these.
        assert [
            encode_value(sentinel) for sentinel in (BOTTOM, NULL_MESSAGE, CRASHED)
        ] == [{"$": "bottom"}, {"$": "null-message"}, {"$": "crashed"}]

    def test_compact_payload(self):
        payload = CompactPayload(
            main=(1, BOTTOM, 0, 1), votes=((2, (1, 1, 0, 1)),)
        )
        assert roundtrip(payload) == payload

    def test_interned_arrays_decode_as_plain_tuples(self):
        from repro.arrays.store import shared_store

        interned = shared_store(2).intern(((1, 0), (0, 1)))
        decoded = roundtrip(interned)
        assert type(decoded) is tuple
        assert decoded == interned


class TestErrors:
    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="extend repro.obs.codec"):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="unknown value tag"):
            decode_value({"$": "mystery"})

    def test_malformed_encoding_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            decode_value({"zz": 1})

    @pytest.mark.parametrize("leaf", [0, BOTTOM, 1.5])
    def test_nesting_past_max_depth_raises(self, leaf):
        # MAX_DEPTH levels round-trip whatever the leaf; one more is a
        # TypeError to encode and a ValueError to decode, never a
        # RecursionError however deep the value goes.
        value = leaf
        for _ in range(MAX_DEPTH):
            value = (value,)
        assert roundtrip(value) == value
        deeper = CompactPayload(main=value, votes=())
        with pytest.raises(TypeError, match="levels deep"):
            encode_value(deeper)
        with pytest.raises(ValueError, match="levels deep"):
            decode_value({"t": [encode_value(value)]})
        for _ in range(5000):
            value = (value,)
        with pytest.raises(TypeError, match="levels deep"):
            encode_value(value)
