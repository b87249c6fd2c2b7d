"""Stable structural content digests for interned arrays.

:class:`~repro.arrays.store.InternedArray` nodes carry a
``key_token`` — a process-local ``object()`` sentinel that makes
typed-structure identity an O(1) dictionary key *within* one process.
This module adds the cross-process counterpart: a **content digest**,
a 16-byte BLAKE2b hash of the typed structure that is equal for equal
typed structures in every process, and distinct for typed-distinct ones
(``(True, True)`` vs ``(1, 1)`` digest differently, exactly as they
intern differently).

The digest is *incremental over child digests*: a node's hash is
computed from its children's cached digests, so digesting an entire
store costs O(unique nodes x n), never O(leaves).  It is memoised in
the node's instance dict (``_content_digest``), paid once per unique
node per process, and — like every interned-array attribute — never
pickled (:meth:`InternedArray.__reduce__` reduces to a plain tuple).

Only **stable leaves** digest: exact-typed ``bool``, ``int``,
``float``, ``str``, ``bytes``, ``None`` and :data:`repro.types.BOTTOM`.
Anything else (arbitrary Byzantine garbage objects, exotic subclasses)
makes the digest ``None``, and undigestable nodes are simply never
persisted — the cache degrades to a miss, it never guesses.

Floats digest by their IEEE-754 big-endian bit pattern, so ``-0.0``,
``0.0`` and distinct NaN payloads stay distinct, matching typed-leaf
identity.  ``bool`` is matched by exact type before ``int`` lookup
ever happens (the tag table is keyed by ``type(value)``), so the
``bool``/``int`` subtype trap cannot conflate them.

The tagged JSON codec at the bottom (:func:`encode_value` /
:func:`decode_value`) round-trips stable leaves and tuples of them
losslessly through the persistent cache's JSON segments.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, Iterable, List, Optional

from repro.arrays.store import InternedArray
from repro.types import BOTTOM, is_bottom

#: Digest width in bytes (BLAKE2b supports 1..64; 16 gives a 128-bit
#: collision bound, far beyond any conceivable store size).
DIGEST_BYTES = 16

#: Stable leaf types, keyed by *exact* type so subclasses (including
#: the bool-is-int trap, and any adversarial subclass with overridden
#: equality) fall through to "undigestable".
_LEAF_TAGS: Dict[type, bytes] = {
    bool: b"b",
    int: b"i",
    float: b"f",
    str: b"s",
    bytes: b"y",
    type(None): b"z",
}


def _hash(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=DIGEST_BYTES).digest()


_BOTTOM_DIGEST = _hash(b"_")


def leaf_digest(value: Any) -> Optional[bytes]:
    """Digest of one typed leaf, or ``None`` if it is not stable.

    The encoding is tag-plus-payload, so values of different types
    never share bytes even when they compare equal (``True`` vs ``1``,
    ``1`` vs ``1.0``, ``"1"`` vs ``b"1"``).
    """
    if is_bottom(value):
        return _BOTTOM_DIGEST
    tag = _LEAF_TAGS.get(type(value))
    if tag is None:
        return None
    if tag == b"b":
        return _hash(b"b1" if value else b"b0")
    if tag == b"i":
        return _hash(b"i" + str(value).encode("ascii"))
    if tag == b"f":
        return _hash(b"f" + struct.pack(">d", value))
    if tag == b"s":
        return _hash(b"s" + value.encode("utf-8"))
    if tag == b"y":
        return _hash(b"y" + value)
    return _hash(b"z")


def content_digest(node: InternedArray) -> Optional[bytes]:
    """The stable structural digest of a canonical node (memoised).

    Equal across processes for equal typed structure;
    ``None`` (memoised too) when any leaf is unstable.  Children are
    digested first and cached, so the amortised cost is O(n) per
    unique node.
    """
    try:
        return node._content_digest
    except AttributeError:
        pass
    hasher = hashlib.blake2b(b"A", digest_size=DIGEST_BYTES)
    digest: Optional[bytes] = None
    for component in node:
        if type(component) is InternedArray:
            child = content_digest(component)
            if child is None:
                break
            hasher.update(b"T")
            hasher.update(child)
        else:
            leaf = leaf_digest(component)
            if leaf is None:
                break
            hasher.update(b"L")
            hasher.update(leaf)
    else:
        digest = hasher.digest()
    node._content_digest = digest
    return digest


def value_digest(value: Any) -> Optional[bytes]:
    """Digest of an arbitrary protocol value (node or stable leaf).

    Plain (un-interned) tuples return ``None``: only canonical nodes
    carry the memoised incremental digest, and every persistable
    code path holds canonical nodes already.
    """
    if type(value) is InternedArray:
        return content_digest(value)
    if isinstance(value, tuple):
        return None
    return leaf_digest(value)


def values_fingerprint(values: Iterable[Any]) -> Optional[str]:
    """Order-insensitive hex fingerprint of a collection of values.

    Used to fingerprint value alphabets and cost-policy parameters in
    persistent-cache keys; ``None`` if any member is unstable (the
    cache then simply stays out of the loop).
    """
    digests: List[bytes] = []
    for value in values:
        digest = value_digest(value)
        if digest is None:
            return None
        digests.append(digest)
    hasher = hashlib.blake2b(digest_size=DIGEST_BYTES)
    for digest in sorted(digests):
        hasher.update(digest)
    return hasher.hexdigest()


def encode_leaf(value: Any) -> Optional[List[Any]]:
    """Lossless tagged-JSON encoding of a stable leaf, else ``None``."""
    if is_bottom(value):
        return ["_"]
    tag = _LEAF_TAGS.get(type(value))
    if tag is None:
        return None
    if tag == b"b":
        return ["b", 1 if value else 0]
    if tag == b"i":
        return ["i", str(value)]
    if tag == b"f":
        return ["f", struct.pack(">d", value).hex()]
    if tag == b"s":
        return ["s", value]
    if tag == b"y":
        return ["y", value.hex()]
    return ["z"]


def decode_leaf(encoded: List[Any]) -> Any:
    """Inverse of :func:`encode_leaf` (raises on malformed input)."""
    tag = encoded[0]
    if tag == "_":
        return BOTTOM
    if tag == "b":
        return bool(encoded[1])
    if tag == "i":
        return int(encoded[1])
    if tag == "f":
        return struct.unpack(">d", bytes.fromhex(encoded[1]))[0]
    if tag == "s":
        return str(encoded[1])
    if tag == "y":
        return bytes.fromhex(encoded[1])
    if tag == "z":
        return None
    raise ValueError(f"unknown leaf tag {tag!r}")


def encode_value(value: Any) -> Optional[List[Any]]:
    """Tagged-JSON encoding of a stable leaf or (nested) tuple of them.

    Decision values and other persisted verdicts route through this;
    ``None`` means "not encodable — do not persist".
    """
    if isinstance(value, tuple):
        parts: List[Any] = []
        for component in value:
            encoded = encode_value(component)
            if encoded is None:
                return None
            parts.append(encoded)
        return ["t", parts]
    return encode_leaf(value)


def decode_value(encoded: List[Any]) -> Any:
    """Inverse of :func:`encode_value` (raises on malformed input)."""
    if encoded[0] == "t":
        return tuple(decode_value(part) for part in encoded[1])
    return decode_leaf(encoded)
