"""repro — reproduction of Coan (PODC 1986).

A communication-efficient canonical form for fault-tolerant
distributed protocols: transform any synchronous consensus protocol
into one with polynomial communication, at a ``(1 + eps)`` round cost.

Public API highlights
---------------------

* :func:`repro.core.transform.canonical_form` — the headline
  transformation,
* :func:`repro.compact.byzantine_agreement.run_compact_byzantine_agreement`
  — Corollary 10's Byzantine agreement protocol, ready to run,
* :mod:`repro.avalanche` — the avalanche agreement primitive,
* :mod:`repro.agreement` — baseline protocols (exponential EIG,
  phase king/queen, Srikanth–Toueg-style witnessed broadcast, Ben-Or,
  Turpin–Coan, crusader, weak, approximate agreement),
* :mod:`repro.runtime` / :mod:`repro.adversary` — the synchronous
  round substrate and fault models everything runs on.

Every package re-exports lazily (PEP 562): ``from repro import
run_protocol`` imports :mod:`repro.runtime.engine` on that line, and
``import repro`` alone imports no submodule, so a command pays only
for what it runs.
"""

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` re-exporting ``exports`` lazily.

    ``exports`` maps a submodule of ``package`` (dotted, relative) to
    the names the package re-exports from it.  The first access to a
    name imports its submodule and caches the value on the package, so
    later accesses are plain attribute reads.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "types": ("BOTTOM", "SystemConfig", "is_bottom"),
    "core.rounds": ("BlockSchedule", "block", "phase", "prior", "simul"),
    "core.transform": (
        "CanonicalForm", "canonical_form", "full_information_form",
    ),
    "compact.byzantine_agreement": ("run_compact_byzantine_agreement",),
    "runtime.engine": ("run_protocol",),
})
__all__.append("__version__")
