"""Tagged-JSON codec for protocol values: full-fidelity round-trips.

The event log (:mod:`repro.obs.events`) renders arbitrary values as
text because events only need to be diffable.  Trace persistence
(:meth:`~repro.runtime.trace.ExecutionTrace.to_jsonl`) needs more: a
reloaded trace must compare equal to the recorded one so the
simulation checker can re-verify it offline.  This codec provides
that round-trip for every value the protocols put on the wire or into
a snapshot:

==============================  =======================================
value                           encoding
==============================  =======================================
``None`` / bool / int / str     as-is (JSON scalars)
float                           ``{"f": repr}`` (repr round-trips)
tuple (incl. InternedArray)     ``{"t": [items...]}``
list                            ``{"l": [items...]}``
dict                            ``{"d": [[k, v], ...]}``
frozenset / set                 ``{"fs"|"s": [items...]}`` (sorted)
any ``repro.types.Sentinel``    ``{"$": TAG}`` — ``bottom``,
                                ``null-message``, ``crashed``,
                                ``sender-faulty``
CompactPayload                  ``{"$": "compact-payload", ...}``
==============================  =======================================

Interned arrays decode as plain tuples — :class:`InternedArray`
pickles the same way, and both the protocols and the trace queries
compare structurally, so equality is preserved.  Set members are
ordered by their encoded JSON form, making the output canonical.

Sentinel and payload types live in protocol packages that import
widely; they are imported lazily here to keep :mod:`repro.obs` free
of import cycles.
"""

from __future__ import annotations

import importlib
import json
from typing import Any, Dict, List

from repro.arrays.store import MAX_DEPTH
from repro.types import SENTINELS, Sentinel

#: The modules that define a wire sentinel.  Encoding needs none of
#: them — whoever holds a sentinel has imported its module — but a
#: trace may be decoded before the protocol that wrote it is imported.
_SENTINEL_MODULES = (
    "repro.avalanche.coding",
    "repro.compact.crash_variant",
    "repro.agreement.crusader",
)


def encode_value(value: Any) -> Any:
    """Encode one protocol value as tagged JSON.

    Raises :class:`TypeError` for a value of an unknown type, and for
    one nested more than :data:`~repro.arrays.store.MAX_DEPTH` levels
    deep — deeper than any honest array, and what a faulty sender
    would otherwise use to run the encoder into the interpreter's
    recursion limit.
    """
    return _encode(value, MAX_DEPTH)


def _encode(value: Any, budget: int) -> Any:
    """:func:`encode_value` ``MAX_DEPTH - budget`` levels down."""
    if budget < 0:
        raise TypeError(
            f"cannot encode a value nested more than {MAX_DEPTH} levels deep"
        )
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"f": repr(value)}
    budget -= 1
    if isinstance(value, tuple):
        return {"t": [_encode(item, budget) for item in value]}
    if isinstance(value, list):
        return {"l": [_encode(item, budget) for item in value]}
    if isinstance(value, dict):
        return {
            "d": [
                [_encode(key, budget), _encode(item, budget)]
                for key, item in value.items()
            ]
        }
    if isinstance(value, (frozenset, set)):
        members = sorted(
            (_encode(item, budget) for item in value),
            key=lambda encoded: json.dumps(encoded, sort_keys=True),
        )
        return {"fs" if isinstance(value, frozenset) else "s": members}
    if isinstance(value, Sentinel):
        return {"$": value.TAG}
    from repro.compact.payload import CompactPayload

    if isinstance(value, CompactPayload):
        return {
            "$": "compact-payload",
            "main": _encode(value.main, budget),
            "votes": _encode(value.votes, budget),
        }
    raise TypeError(
        f"cannot encode {type(value).__name__} value {value!r} — "
        "extend repro.obs.codec if the protocols grow a new wire type"
    )


def decode_value(encoded: Any) -> Any:
    """Invert :func:`encode_value`.

    Raises :class:`ValueError` for an unknown tag or shape, and for
    nesting deeper than :func:`encode_value` writes.
    """
    return _decode(encoded, MAX_DEPTH)


def _decode(encoded: Any, budget: int) -> Any:
    """:func:`decode_value` ``MAX_DEPTH - budget`` levels down."""
    if budget < 0:
        raise ValueError(
            f"encoded value nested more than {MAX_DEPTH} levels deep"
        )
    if encoded is None or isinstance(encoded, (bool, int, str)):
        return encoded
    if not isinstance(encoded, dict) or len(encoded) < 1:
        raise ValueError(f"malformed encoded value: {encoded!r}")
    if "f" in encoded:
        return float(encoded["f"])
    budget -= 1
    if "t" in encoded:
        return tuple(_decode(item, budget) for item in encoded["t"])
    if "l" in encoded:
        return [_decode(item, budget) for item in encoded["l"]]
    if "d" in encoded:
        return {
            _decode(key, budget): _decode(item, budget)
            for key, item in encoded["d"]
        }
    if "fs" in encoded:
        return frozenset(_decode(item, budget) for item in encoded["fs"])
    if "s" in encoded:
        return {_decode(item, budget) for item in encoded["s"]}
    if "$" in encoded:
        return _decode_tagged(encoded, budget)
    raise ValueError(f"malformed encoded value: {encoded!r}")


def _decode_tagged(encoded: Dict[str, Any], budget: int) -> Any:
    tag = encoded["$"]
    if tag == "compact-payload":
        from repro.compact.payload import CompactPayload

        return CompactPayload(
            main=_decode(encoded["main"], budget),
            votes=_decode(encoded["votes"], budget),
        )
    if tag not in SENTINELS:
        for module in _SENTINEL_MODULES:
            importlib.import_module(module)
    sentinel = SENTINELS.get(tag)
    if sentinel is None:
        raise ValueError(f"unknown value tag {tag!r}")
    return sentinel


__all__: List[str] = ["decode_value", "encode_value"]
