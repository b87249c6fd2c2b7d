"""Replayable fuzz cases and the on-disk regression corpus.

A :class:`FuzzCase` freezes everything that determines one execution
under the fuzzing adversary: protocol name, system size, seed, input
vector, fault set, optional round cap, and the shrinker's silence
mask.  Replaying a case (see :func:`repro.fuzz.campaign.replay_case`)
re-derives the adversary from the seed, so the file needs none of the
attack's sampled choices — the seed *is* the attack.

Cases serialise as JSON, the input vector tagged so that a sentinel
input round-trips (inputs may contain :data:`~repro.types.BOTTOM`,
e.g. firing-squad never-starters), and the corpus filename embeds a
content digest so
two different cases can never collide and a corrupted file is
self-evident.  Files under ``tests/fuzz/corpus/`` are replayed by the
ordinary pytest suite: a shrunk counterexample committed there becomes
a permanent regression test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.types import SENTINELS, ProcessId, Round, Sentinel, Value

#: Bumped when the serialised form changes incompatibly.
CASE_SCHEMA_VERSION = 1


def _tag_inputs(inputs: Tuple[Tuple[ProcessId, Value], ...]) -> Any:
    """``inputs`` as ``{"t": [{"t": [pid, value]}, ...]}``, a sentinel
    value written ``{"$": TAG}``.  Inputs are scalars or sentinels."""
    return {"t": [
        {"t": [pid, _tag(value)]} for pid, value in inputs
    ]}


def _tag(value: Value) -> Any:
    return {"$": value.TAG} if isinstance(value, Sentinel) else value


def _untag_inputs(document: Any) -> List[Tuple[ProcessId, Value]]:
    """Invert :func:`_tag_inputs`; :class:`ValueError` on anything else."""
    try:
        pairs = [entry["t"] for entry in document["t"]]
        return [(pid, _untag(value)) for pid, value in pairs]
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed fuzz case inputs: {error}") from None


def _untag(value: Any) -> Value:
    return SENTINELS[value["$"]] if isinstance(value, dict) else value


@dataclass(frozen=True)
class FuzzCase:
    """One replayable execution under the fuzzing adversary."""

    protocol: str
    n: int
    t: int
    seed: int
    inputs: Tuple[Tuple[ProcessId, Value], ...]
    faulty: Tuple[ProcessId, ...]
    rounds: Optional[int] = None
    mask: Tuple[Tuple[Round, ProcessId], ...] = ()
    note: str = ""
    violations: Tuple[str, ...] = field(default=(), compare=False)

    @staticmethod
    def build(
        protocol: str,
        n: int,
        t: int,
        seed: int,
        inputs: Any,
        faulty: Any,
        rounds: Optional[int] = None,
        mask: Any = (),
        note: str = "",
        violations: Any = (),
    ) -> "FuzzCase":
        """Normalise loose arguments (dicts, sets) into canonical form."""
        if isinstance(inputs, dict):
            input_items = tuple(sorted(inputs.items()))
        else:
            input_items = tuple(sorted(tuple(item) for item in inputs))
        return FuzzCase(
            protocol=protocol,
            n=int(n),
            t=int(t),
            seed=int(seed),
            inputs=input_items,
            faulty=tuple(sorted({int(pid) for pid in faulty})),
            rounds=None if rounds is None else int(rounds),
            mask=tuple(sorted({(int(r), int(s)) for r, s in mask})),
            note=note,
            violations=tuple(violations),
        )

    @property
    def input_map(self) -> dict:
        return dict(self.inputs)

    def with_(self, **changes: Any) -> "FuzzCase":
        """A copy with ``changes`` applied and re-canonicalised."""
        merged = {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
            "inputs": self.inputs,
            "faulty": self.faulty,
            "rounds": self.rounds,
            "mask": self.mask,
            "note": self.note,
            "violations": self.violations,
        }
        merged.update(changes)
        return FuzzCase.build(**merged)

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> str:
        document = {
            "schema_version": CASE_SCHEMA_VERSION,
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
            "inputs": _tag_inputs(self.inputs),
            "faulty": list(self.faulty),
            "rounds": self.rounds,
            "mask": [list(entry) for entry in self.mask],
            "note": self.note,
            "violations": list(self.violations),
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "FuzzCase":
        document = json.loads(text)
        version = document.get("schema_version")
        if version != CASE_SCHEMA_VERSION:
            raise ValueError(
                f"fuzz case schema {version!r} unsupported "
                f"(this build reads {CASE_SCHEMA_VERSION})"
            )
        return FuzzCase.build(
            protocol=document["protocol"],
            n=document["n"],
            t=document["t"],
            seed=document["seed"],
            inputs=_untag_inputs(document["inputs"]),
            faulty=document["faulty"],
            rounds=document["rounds"],
            mask=tuple(tuple(entry) for entry in document["mask"]),
            note=document.get("note", ""),
            violations=tuple(document.get("violations", ())),
        )

    def digest(self) -> str:
        """Short content hash over the replay-relevant fields.

        ``note`` and ``violations`` are advisory (they describe why
        the case was saved, not what it runs), so they are excluded:
        re-shrinking the same failure always maps to the same file.
        """
        payload = json.dumps(
            {
                "protocol": self.protocol,
                "n": self.n,
                "t": self.t,
                "seed": self.seed,
                "inputs": _tag_inputs(self.inputs),
                "faulty": list(self.faulty),
                "rounds": self.rounds,
                "mask": [list(entry) for entry in self.mask],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def filename(self) -> str:
        return f"{self.protocol}-{self.digest()}.json"

    def save(self, corpus_dir: Path) -> Path:
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
        path = corpus_dir / self.filename()
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def load_case(path: Path) -> FuzzCase:
    """Load one case file (see :meth:`FuzzCase.from_json`)."""
    return FuzzCase.from_json(Path(path).read_text(encoding="utf-8"))


def load_corpus(corpus_dir: Path) -> List[Tuple[Path, FuzzCase]]:
    """All cases under ``corpus_dir``, sorted by filename."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    entries: List[Tuple[Path, FuzzCase]] = []
    for path in sorted(corpus_dir.glob("*.json")):
        entries.append((path, load_case(path)))
    return entries


__all__ = [
    "CASE_SCHEMA_VERSION",
    "FuzzCase",
    "load_case",
    "load_corpus",
]
