"""Saving and restoring execution results.

Long sweeps are cheap to re-run here, but their *outcomes* are worth
keeping: EXPERIMENTS.md points at recorded numbers, and regressions
are easiest to litigate against a stored artifact.  This module
persists :class:`repro.runtime.engine.ExecutionResult` objects to disk
and restores them with full fidelity — including the singleton markers
(:data:`BOTTOM`, null messages, CRASHED) whose ``is``-identity the
library's code relies on, which is why they all implement
``__reduce__``.

Process objects can hold closures (decision rules), which pickle
refuses; the saved form therefore drops the live process objects and
keeps everything else (decisions, rounds, metrics, trace, inputs).
"""

from __future__ import annotations

import dataclasses
import pathlib
import pickle
from typing import Union

import repro.obs.core as _obs
from repro.errors import ConfigurationError
from repro.runtime.engine import ExecutionResult

Pathish = Union[str, pathlib.Path]

# Bump when the saved layout changes incompatibly.  That includes the
# attributes of anything a result embeds: unpickling restores whatever
# attributes the file names, so a stale layout loads without error and
# shows only when the result is pickled again.
# 2: MessageMetrics keeps per-round and per-sender rows only.
FORMAT_VERSION = 2


def save_result(result: ExecutionResult, path: Pathish) -> None:
    """Persist ``result`` (without live process objects) to ``path``."""
    stripped = dataclasses.replace(result, processes={})
    payload = {"version": FORMAT_VERSION, "result": stripped}
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    observer = _obs.ACTIVE
    if observer is not None:
        observer.emit("checkpoint_save", path=str(path))


def load_result(path: Pathish) -> ExecutionResult:
    """Restore a result saved by :func:`save_result`."""
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if not (
        isinstance(payload, dict)
        and payload.get("version") == FORMAT_VERSION
        and isinstance(payload.get("result"), ExecutionResult)
    ):
        raise ConfigurationError(
            f"{path} is not a version-{FORMAT_VERSION} saved execution result"
        )
    observer = _obs.ACTIVE
    if observer is not None:
        observer.emit("checkpoint_load", path=str(path))
    return payload["result"]
