"""The rule registry: every check has an id, a pass, and a rationale.

Rules are declared where they are implemented (the pass module) via
the :func:`rule` registrar; the registry exists so the reporters and
``docs/statics.md`` can enumerate them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule.

    ``rationale`` names the part of the paper the rule protects —
    every rule here exists because some theorem assumes the property
    it checks.
    """

    id: str
    pass_name: str
    title: str
    rationale: str


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, pass_name: str, title: str, rationale: str) -> Rule:
    """Register and return a :class:`Rule`; ids must be unique."""
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    registered = Rule(rule_id, pass_name, title, rationale)
    RULES[rule_id] = registered
    return registered
