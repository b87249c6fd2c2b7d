"""Cross-run persistent structural sharing: content-addressed warm caches.

PR 3 made repeated subtrees shared *within* a process (hash-consing),
PR 7 compiled them into flat numpy tables — but every new process
still rebuilds the :class:`~repro.arrays.store.ArrayStore`, the
legality-verdict memos and the expansion caches from nothing.  This
module is the disk layer underneath all three: a content-addressed
store keyed on the stable structural digests of
:mod:`repro.arrays.digest`, so the canonical DAG and the pure verdicts
derived from it survive across executions, sweep cells and fuzz
campaigns.

On-disk layout (one directory, opt-in via ``REPRO_CACHE_DIR`` /
``sweep(..., cache=...)``)::

    manifest.jsonl      append-only: one JSON line per segment
    seg-<sha>.json      immutable content-addressed segments

Two segment kinds exist.  ``nodes`` segments serialise a store's new
canonical nodes in intern (child-before-parent) order: a shared leaf
table plus one row per node whose components are segment-local row
indices (``>= 0``), leaf codes (``-(code + 1)`` — the flat kernel's
encoding), or digest-hex strings referencing nodes from earlier
segments.  ``map`` segments carry ``key -> value`` verdict tables
(legality booleans, tagged-JSON decision values, expansion-result
digests), one table per *fingerprint*.

Every fingerprint embeds the persistence schema version and the
cost-policy constants (see :meth:`PersistentStore.\
fingerprint`), plus per-kind parameters such as the value-alphabet
digest — so an entry written under different semantics is simply
invisible, never silently reused.

Concurrency: segments are written to a temp file and ``os.replace``\
d into their content-addressed name, so concurrent writers producing
the same content collide harmlessly and different content never
clobbers.  The manifest is append-only via ``O_APPEND`` single-write
lines; a reader skips torn or duplicate lines.  A segment whose bytes
do not match the SHA recorded in the manifest is *quarantined*
(renamed aside, counted via ``persist.quarantined``) and its entries
recomputed rather than trusted.

The cache is a pure performance layer: a cold run, a warm run and a
cache-disabled run produce pickle-equal results — every persisted
value is the output of a pure function of content-digested inputs
(legality of a node, an EIG decision, a ``phi_b`` expansion under a
fingerprinted OUT table), and every read is verified-or-recomputed.

Observability: ``persist.{hit,miss,load,flush,quarantined}`` counters
and the ``persist.bytes`` gauge flow through the active observer (see
docs/observability.md); the same numbers are kept in
:attr:`PersistentStore.counters` for reports that run unobserved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import weakref
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import repro.obs.core as _obs
from repro.arrays.digest import (
    DIGEST_BYTES,
    content_digest,
    decode_leaf,
    encode_leaf,
    leaf_digest,
)
from repro.arrays.store import ArrayStore, InternedArray, shared_store
from repro.errors import ProtocolViolation

#: Bumped whenever the segment or digest encoding changes; part of
#: every fingerprint, so old caches go stale instead of wrong.
SCHEMA_VERSION = 1

#: The opt-in environment switch: a directory path enables the cache
#: for the whole process (overridable per-scope via :func:`using_cache`).
CACHE_ENV = "REPRO_CACHE_DIR"

#: Sentinel distinguishing "no entry" from a stored ``None``-ish value.
MISSING: Any = object()

CachePath = Union[str, "os.PathLike[str]"]

# Module functions that manage the process-wide cache handle.  The
# cache is persistence state, not protocol state: every value it
# serves is the output of a pure function of content-digested inputs,
# so which process computed it can never alter a protocol-visible
# outcome (pinned by the cold/warm/disabled byte-identity tests).
PURITY_EXEMPT = {
    "active": (
        "reads REPRO_CACHE_DIR and memoises the resulting handle in a "
        "module global; the cache only changes how fast pure verdicts "
        "are re-derived, never what they are"
    ),
    "store_for": (
        "memoises one PersistentStore per directory in a module-global "
        "registry so repeated scopes share loaded segments; the store "
        "is observationally pure (verified-or-recomputed reads)"
    ),
    "using_cache": (
        "swaps the module-global cache override for a scope and "
        "restores it; the sanctioned way sweep selects a cache "
        "directory (or disable caching) without mutating the env"
    ),
    "configure_cache": (
        "sets the module-global cache override for long-lived embeds; "
        "same observational-purity argument as using_cache"
    ),
    "reset_cache": (
        "clears the module-global override back to the environment "
        "default (the inverse of configure_cache)"
    ),
    "forget_caches": (
        "drops the memoised handles so tests can simulate a process "
        "restart against the same directory"
    ),
}


class _StoreState:
    """Per-:class:`ArrayStore` persistence bookkeeping.

    ``exported`` is the intern-order watermark (rows before it are
    already on disk or came from disk); ``index`` maps content digest
    to the live canonical node, resolving cross-segment references;
    ``loaded`` names the segments already applied to this store.
    """

    __slots__ = ("exported", "index", "loaded")

    def __init__(self) -> None:
        self.exported = 0
        self.index: Dict[bytes, InternedArray] = {}
        self.loaded: Set[str] = set()


def _blake(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=DIGEST_BYTES).hexdigest()


class PersistentStore:
    """One cache directory: manifest, segments and in-memory tables.

    Thread-unsafe by design (the repro runtime is single-threaded per
    process); safe against *other processes* writing the same
    directory, per the module docstring.
    """

    def __init__(self, root: CachePath):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.root / "manifest.jsonl"
        self._manifest: List[Dict[str, Any]] = []
        self._segments: Set[str] = set()
        self._manifest_loaded = False
        # fingerprint -> key -> value (loaded union recorded).
        self._maps: Dict[str, Dict[str, Any]] = {}
        # fingerprint -> entries recorded since the last flush.
        self._pending: Dict[str, Dict[str, Any]] = {}
        # Stores warmed or written through this cache (weak: a cleared
        # registry must be collectable even while the cache lives on).
        self._stores: List["weakref.ref[ArrayStore]"] = []
        self._tmp_counter = 0
        self._bytes = 0
        #: Mirror of the ``persist.*`` observer counters, always
        #: maintained (``stats()`` reports them even when unobserved).
        self.counters: Dict[str, int] = {
            "hit": 0,
            "miss": 0,
            "load": 0,
            "flush": 0,
            "quarantined": 0,
            "skipped": 0,
        }

    # -- fingerprints ------------------------------------------------------

    def fingerprint(self, detail: str) -> str:
        """The full versioned fingerprint for a ``detail`` suffix.

        Prefixes schema version and the cost-policy constants, so
        entries written under any different semantics are never
        visible, let alone reused.
        """
        from repro.arrays.encoding import HEADER_BITS, NULL_BITS

        return f"v{SCHEMA_VERSION};costs={HEADER_BITS}.{NULL_BITS};{detail}"

    def _nodes_detail(self, n: int) -> str:
        return f"nodes;n={n}"

    # -- counters ----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count(f"persist.{name}", amount)

    def _gauge_bytes(self) -> None:
        observer = _obs.ACTIVE
        if observer is not None:
            observer.gauge("persist.bytes", self._bytes)

    # -- manifest ----------------------------------------------------------

    def _ensure_manifest(self) -> None:
        if self._manifest_loaded:
            return
        self._manifest_loaded = True
        try:
            raw = self.manifest_path.read_bytes()
        except OSError:
            return
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                # A torn line from a concurrent appender; later lines
                # may still be whole, so keep going.
                self._count("skipped")
                continue
            if not isinstance(entry, dict):
                continue
            if entry.get("v") != SCHEMA_VERSION:
                continue
            segment = entry.get("segment")
            if not isinstance(segment, str) or segment in self._segments:
                continue
            self._segments.add(segment)
            self._manifest.append(entry)
            self._bytes += int(entry.get("bytes", 0) or 0)
        self._gauge_bytes()

    def _quarantine(self, entry: Dict[str, Any], path: Path) -> None:
        entry["bad"] = True
        self._count("quarantined")
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
        except OSError:
            pass  # already moved by another reader, or unwritable dir

    def _load_segment(self, entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        if entry.get("bad"):
            return None
        path = self.root / str(entry["segment"])
        try:
            blob = path.read_bytes()
        except OSError:
            entry["bad"] = True
            self._count("skipped")
            return None
        if _blake(blob) != entry.get("sha"):
            self._quarantine(entry, path)
            return None
        try:
            payload = json.loads(blob)
        except ValueError:
            self._quarantine(entry, path)
            return None
        if not isinstance(payload, dict) or payload.get("kind") != entry.get(
            "kind"
        ):
            self._quarantine(entry, path)
            return None
        self._count("load")
        return payload

    # -- verdict maps ------------------------------------------------------

    def _ensure_map(self, fingerprint: str) -> Dict[str, Any]:
        table = self._maps.get(fingerprint)
        if table is not None:
            return table
        self._ensure_manifest()
        table = {}
        self._maps[fingerprint] = table
        for entry in self._manifest:
            if entry.get("kind") != "map" or entry.get("fp") != fingerprint:
                continue
            payload = self._load_segment(entry)
            if payload is None:
                continue
            entries = payload.get("entries")
            if isinstance(entries, dict):
                table.update(entries)
        return table

    def map_get(self, detail: str, key: str) -> Any:
        """The stored value under ``(detail fingerprint, key)``.

        Returns :data:`MISSING` when absent; hit/miss counted either
        way.  Callers must type-check the returned JSON value before
        trusting it (a poisoned entry downgrades to a miss, never to a
        wrong answer).
        """
        value = self._ensure_map(self.fingerprint(detail)).get(key, MISSING)
        self._count("hit" if value is not MISSING else "miss")
        return value

    def map_put(self, detail: str, key: str, value: Any) -> None:
        """Record a (pure, JSON-encoded) verdict for the next flush."""
        fingerprint = self.fingerprint(detail)
        table = self._ensure_map(fingerprint)
        if key in table and table[key] == value:
            return
        table[key] = value
        self._pending.setdefault(fingerprint, {})[key] = value

    # -- node tables -------------------------------------------------------

    def _store_state(self, store: ArrayStore) -> _StoreState:
        state = store.persist_state
        if not isinstance(state, _StoreState):
            state = _StoreState()
            store.persist_state = state
            self._stores.append(weakref.ref(store))
        return state

    def warm_store(self, store: ArrayStore) -> None:
        """Replay every matching ``nodes`` segment into ``store``.

        Idempotent per segment; the watermark is set afterwards so the
        replayed rows are never re-exported.
        """
        self._ensure_manifest()
        state = self._store_state(store)
        wanted = self.fingerprint(self._nodes_detail(store.n))
        for entry in self._manifest:
            if entry.get("kind") != "nodes" or entry.get("fp") != wanted:
                continue
            segment = str(entry["segment"])
            if segment in state.loaded:
                continue
            state.loaded.add(segment)
            payload = self._load_segment(entry)
            if payload is not None:
                self._apply_nodes(store, state, payload)
        state.exported = len(store.interned_nodes())

    def _apply_nodes(
        self,
        store: ArrayStore,
        state: _StoreState,
        payload: Dict[str, Any],
    ) -> None:
        raw_leaves = payload.get("leaves")
        raw_rows = payload.get("rows")
        if not isinstance(raw_leaves, list) or not isinstance(raw_rows, list):
            self._count("skipped")
            return
        leaves: List[Any] = []
        for encoded in raw_leaves:
            try:
                leaves.append(decode_leaf(encoded))
            except (ValueError, LookupError, TypeError):
                leaves.append(MISSING)
        local: List[Optional[InternedArray]] = []
        for row in raw_rows:
            components = self._decode_row(row, leaves, local, state)
            if components is None:
                local.append(None)
                self._count("skipped")
                continue
            try:
                node = store.intern(tuple(components))
            except ProtocolViolation:
                local.append(None)
                self._count("skipped")
                continue
            if type(node) is not InternedArray:
                local.append(None)
                continue
            digest = content_digest(node)
            if digest is not None:
                state.index[digest] = node
            local.append(node)

    def _decode_row(
        self,
        row: Any,
        leaves: List[Any],
        local: List[Optional[InternedArray]],
        state: _StoreState,
    ) -> Optional[List[Any]]:
        if not isinstance(row, list):
            return None
        components: List[Any] = []
        for ref in row:
            if isinstance(ref, bool):
                return None
            if isinstance(ref, int):
                if ref >= 0:
                    child = local[ref] if ref < len(local) else None
                    if child is None:
                        return None
                    components.append(child)
                else:
                    position = -ref - 1
                    if position >= len(leaves):
                        return None
                    leaf = leaves[position]
                    if leaf is MISSING:
                        return None
                    components.append(leaf)
            elif isinstance(ref, str):
                try:
                    external = state.index.get(bytes.fromhex(ref))
                except ValueError:
                    return None
                if external is None:
                    return None
                components.append(external)
            else:
                return None
        return components

    def node_for(
        self, store: ArrayStore, digest_hex: str
    ) -> Optional[InternedArray]:
        """The live node with this content digest, if the cache knows it."""
        state = store.persist_state
        if not isinstance(state, _StoreState):
            return None
        try:
            digest = bytes.fromhex(digest_hex)
        except ValueError:
            return None
        return state.index.get(digest)

    def register_node(
        self, store: ArrayStore, node: InternedArray
    ) -> Optional[str]:
        """Index ``node`` for cross-run reference; its digest hex, or None."""
        digest = content_digest(node)
        if digest is None:
            return None
        self._store_state(store).index[digest] = node
        return digest.hex()

    def _export_store(self, store: ArrayStore) -> int:
        state = store.persist_state
        if not isinstance(state, _StoreState):
            return 0
        order = store.interned_nodes()
        if state.exported >= len(order):
            return 0
        new_nodes = order[state.exported :]
        state.exported = len(order)
        leaves: List[Any] = []
        leaf_codes: Dict[Tuple[Any, ...], int] = {}
        rows: List[List[Any]] = []
        row_digests: List[bytes] = []
        local_rows: Dict[object, int] = {}
        for node in new_nodes:
            digest = content_digest(node)
            if digest is None:
                continue  # unstable leaves: never persisted
            refs = self._encode_row(node, leaf_codes, leaves, local_rows, state)
            if refs is None:
                continue
            local_rows[node.key_token] = len(rows)
            rows.append(refs)
            row_digests.append(digest)
            state.index[digest] = node
        if not rows:
            return 0
        payload: Dict[str, Any] = {
            "kind": "nodes",
            "n": store.n,
            "leaves": leaves,
            "rows": rows,
            "check": _blake(b"".join(row_digests)),
        }
        detail = self._nodes_detail(store.n)
        return int(
            self._write_segment(payload, "nodes", detail, len(rows), store.n)
        )

    def _encode_row(
        self,
        node: InternedArray,
        leaf_codes: Dict[Tuple[Any, ...], int],
        leaves: List[Any],
        local_rows: Dict[object, int],
        state: _StoreState,
    ) -> Optional[List[Any]]:
        refs: List[Any] = []
        for component in node:
            if type(component) is InternedArray:
                row = local_rows.get(component.key_token)
                if row is not None:
                    refs.append(row)
                    continue
                child_digest = content_digest(component)
                if child_digest is None:
                    return None
                refs.append(child_digest.hex())
            else:
                encoded = encode_leaf(component)
                if encoded is None:
                    return None
                token = tuple(encoded)
                code = leaf_codes.get(token)
                if code is None:
                    code = leaf_codes[token] = len(leaves)
                    leaves.append(encoded)
                refs.append(-(code + 1))
        return refs

    # -- preload / flush ---------------------------------------------------

    def preload_all(self) -> None:
        """Warm every matching table eagerly (pre-fork, so pool workers
        inherit one loaded manifest instead of each re-reading it)."""
        self._ensure_manifest()
        prefix = self.fingerprint("")
        widths: Set[int] = set()
        for entry in self._manifest:
            kind = entry.get("kind")
            fingerprint = entry.get("fp")
            if not isinstance(fingerprint, str):
                continue
            if kind == "nodes" and isinstance(entry.get("n"), int):
                if fingerprint == self.fingerprint(
                    self._nodes_detail(int(entry["n"]))
                ):
                    widths.add(int(entry["n"]))
            elif kind == "map" and fingerprint.startswith(prefix):
                self._ensure_map(fingerprint)
        for n in sorted(widths):
            self.warm_store(shared_store(n))

    def flush(self) -> int:
        """Write every delta (new nodes, new verdicts) to disk.

        Returns the number of segments written.  Safe to call any time
        — an empty delta writes nothing.
        """
        self._ensure_manifest()
        written = 0
        live: List["weakref.ref[ArrayStore]"] = []
        for ref in self._stores:
            store = ref()
            if store is None:
                continue
            live.append(ref)
            written += self._export_store(store)
        self._stores = live
        for fingerprint, entries in self._pending.items():
            if not entries:
                continue
            payload = {
                "kind": "map",
                "fp": fingerprint,
                "entries": dict(entries),
            }
            written += int(
                self._write_segment_fp(
                    payload, "map", fingerprint, len(entries), None
                )
            )
        self._pending = {}
        if written:
            self._count("flush", written)
            self._gauge_bytes()
        return written

    def _write_segment(
        self,
        payload: Dict[str, Any],
        kind: str,
        detail: str,
        count: int,
        n: Optional[int],
    ) -> bool:
        return self._write_segment_fp(
            payload, kind, self.fingerprint(detail), count, n
        )

    def _write_segment_fp(
        self,
        payload: Dict[str, Any],
        kind: str,
        fingerprint: str,
        count: int,
        n: Optional[int],
    ) -> bool:
        payload = dict(payload)
        payload["fp"] = fingerprint
        blob = json.dumps(
            payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        sha = _blake(blob)
        name = f"seg-{sha}.json"
        if name in self._segments:
            return False
        path = self.root / name
        if not path.exists():
            # Temp-then-replace: a concurrent writer producing the
            # same content lands on the same name with the same bytes.
            self._tmp_counter += 1
            tmp = self.root / f".tmp-{os.getpid()}-{self._tmp_counter}"
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        entry: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "kind": kind,
            "fp": fingerprint,
            "segment": name,
            "entries": count,
            "bytes": len(blob),
            "sha": sha,
        }
        if n is not None:
            entry["n"] = n
        line = json.dumps(entry, separators=(",", ":"), sort_keys=True)
        fd = os.open(
            self.manifest_path,
            os.O_WRONLY | os.O_APPEND | os.O_CREAT,
            0o644,
        )
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        self._segments.add(name)
        self._manifest.append(entry)
        self._bytes += len(blob)
        return True

    # -- admin: stats / verify / gc ---------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Manifest summary plus this process's counters (JSON-safe)."""
        self._ensure_manifest()
        kinds: Dict[str, int] = {}
        entries = 0
        widths: Set[int] = set()
        fingerprints: Set[str] = set()
        for entry in self._manifest:
            kind = str(entry.get("kind"))
            kinds[kind] = kinds.get(kind, 0) + 1
            entries += int(entry.get("entries", 0) or 0)
            if isinstance(entry.get("n"), int):
                widths.add(int(entry["n"]))
            if isinstance(entry.get("fp"), str):
                fingerprints.add(entry["fp"])
        return {
            "path": str(self.root),
            "segments": len(self._manifest),
            "kinds": kinds,
            "entries": entries,
            "bytes": self._bytes,
            "widths": sorted(widths),
            "fingerprints": len(fingerprints),
            "counters": dict(self.counters),
        }

    def verify(self, sample: int = 0) -> Dict[str, Any]:
        """Re-read and re-digest segments to detect corruption.

        Checks every manifest entry's file hash, then fully re-derives
        the digest arithmetic of up to ``sample`` ``nodes`` segments
        (0 = all) against their recorded ``check`` digests — the same
        incremental scheme :func:`repro.arrays.digest.content_digest`
        uses, recomputed from the serialized rows alone.
        """
        self._ensure_manifest()
        checked = 0
        redigested = 0
        corrupt: List[Dict[str, str]] = []
        for entry in self._manifest:
            name = str(entry.get("segment"))
            path = self.root / name
            checked += 1
            try:
                blob = path.read_bytes()
            except OSError:
                corrupt.append({"segment": name, "error": "missing"})
                continue
            if _blake(blob) != entry.get("sha"):
                corrupt.append({"segment": name, "error": "sha-mismatch"})
                continue
            if entry.get("kind") != "nodes":
                continue
            if sample and redigested >= sample:
                continue
            redigested += 1
            try:
                payload = json.loads(blob)
                check = self._recompute_check(payload)
            except (ValueError, LookupError, TypeError):
                check = None
            if check is None or check != payload.get("check"):
                corrupt.append({"segment": name, "error": "check-mismatch"})
        return {
            "segments": checked,
            "redigested": redigested,
            "corrupt": corrupt,
            "ok": not corrupt,
        }

    def _recompute_check(self, payload: Dict[str, Any]) -> Optional[str]:
        leaf_digests: List[Optional[bytes]] = []
        for encoded in payload.get("leaves", []):
            leaf_digests.append(leaf_digest(decode_leaf(encoded)))
        row_digests: List[bytes] = []
        for row in payload.get("rows", []):
            hasher = hashlib.blake2b(b"A", digest_size=DIGEST_BYTES)
            for ref in row:
                if isinstance(ref, bool):
                    return None
                if isinstance(ref, int) and ref >= 0:
                    hasher.update(b"T")
                    hasher.update(row_digests[ref])
                elif isinstance(ref, int):
                    leaf = leaf_digests[-ref - 1]
                    if leaf is None:
                        return None
                    hasher.update(b"L")
                    hasher.update(leaf)
                elif isinstance(ref, str):
                    hasher.update(b"T")
                    hasher.update(bytes.fromhex(ref))
                else:
                    return None
            row_digests.append(hasher.digest())
        return _blake(b"".join(row_digests))

    def gc(self, keep_days: float, now: float) -> Dict[str, Any]:
        """Prune segments older than ``keep_days`` (mtime-based).

        ``now`` is an epoch timestamp supplied by the caller (the CLI
        passes ``time.time()``; this package is under the determinism
        lint and never reads the clock itself).  Rewrites the manifest
        atomically; intended as an offline admin operation, not for
        use concurrent with active writers.
        """
        self._ensure_manifest()
        cutoff = now - keep_days * 86400.0
        kept: List[Dict[str, Any]] = []
        removed = 0
        freed = 0
        for entry in self._manifest:
            path = self.root / str(entry.get("segment"))
            try:
                mtime = path.stat().st_mtime
            except OSError:
                removed += 1  # file already gone: drop the line too
                continue
            if mtime < cutoff:
                try:
                    os.unlink(path)
                except OSError:
                    pass
                removed += 1
                freed += int(entry.get("bytes", 0) or 0)
            else:
                kept.append(entry)
        lines = "".join(
            json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n"
            for entry in kept
        )
        self._tmp_counter += 1
        tmp = self.root / f".tmp-{os.getpid()}-{self._tmp_counter}"
        tmp.write_bytes(lines.encode("utf-8"))
        os.replace(tmp, self.manifest_path)
        self._manifest = kept
        self._segments = {str(entry["segment"]) for entry in kept}
        self._bytes -= freed
        return {"kept": len(kept), "removed": removed, "bytes_freed": freed}


# -- process-wide cache selection ------------------------------------------

_STORES_BY_PATH: Dict[str, PersistentStore] = {}
_UNSET: Any = object()
_OVERRIDE: Any = _UNSET
_ENV_MEMO: Tuple[Optional[str], Optional[PersistentStore]] = (None, None)


def store_for(path: CachePath) -> PersistentStore:
    """The memoised :class:`PersistentStore` for a directory."""
    key = str(Path(path))
    cache = _STORES_BY_PATH.get(key)
    if cache is None:
        cache = _STORES_BY_PATH[key] = PersistentStore(key)
    return cache


def active() -> Optional[PersistentStore]:
    """The cache in effect: the scope override, else ``REPRO_CACHE_DIR``."""
    if _OVERRIDE is not _UNSET:
        if _OVERRIDE is None:
            return None
        return _OVERRIDE  # type: ignore[no-any-return]
    global _ENV_MEMO
    raw = os.environ.get(CACHE_ENV)
    if raw == _ENV_MEMO[0]:
        return _ENV_MEMO[1]
    cache = store_for(raw) if raw else None
    _ENV_MEMO = (raw, cache)
    return cache


@contextlib.contextmanager
def using_cache(path: Any) -> Iterator[Optional[PersistentStore]]:
    """Scope the active cache: a path enables it, ``None``/``False``
    disables it (even when ``REPRO_CACHE_DIR`` is set)."""
    global _OVERRIDE
    prior = _OVERRIDE
    _OVERRIDE = None if path is None or path is False else store_for(path)
    try:
        yield _OVERRIDE
    finally:
        _OVERRIDE = prior


def configure_cache(path: Any) -> Optional[PersistentStore]:
    """Set the process-wide cache override (``None``/``False`` disables)."""
    global _OVERRIDE
    _OVERRIDE = None if path is None or path is False else store_for(path)
    return _OVERRIDE  # type: ignore[no-any-return]


def reset_cache() -> None:
    """Drop the override; ``REPRO_CACHE_DIR`` governs again."""
    global _OVERRIDE
    _OVERRIDE = _UNSET


def forget_caches() -> None:
    """Forget memoised handles (tests: simulate a process restart)."""
    global _ENV_MEMO
    _STORES_BY_PATH.clear()
    _ENV_MEMO = (None, None)


def warm_shared_store(store: ArrayStore) -> None:
    """Hook for :func:`repro.arrays.store.shared_store`: warm a freshly
    created shared store from the active cache, if any."""
    cache = active()
    if cache is not None:
        cache.warm_store(store)


def flush_active() -> int:
    """Flush the active cache's deltas, if any; segments written."""
    cache = active()
    if cache is None:
        return 0
    return cache.flush()
