"""Rule metadata for protoflow's TAINT family."""

from __future__ import annotations

from repro.statics.rules import rule

TAINT001 = rule(
    "TAINT001",
    "taint",
    "decision on an unsanitized adversarial value",
    "a Byzantine sender controls everything receive() delivers; a "
    "decision must only depend on values that passed a majority / "
    "threshold / legality filter (agreement validity fails otherwise)",
)
TAINT002 = rule(
    "TAINT002",
    "taint",
    "unsanitized adversarial value in an outgoing payload",
    "relaying raw received bytes lets one faulty processor speak with "
    "another's voice; payloads must carry only sanitized derivations "
    "of received values",
)
TAINT003 = rule(
    "TAINT003",
    "taint",
    "invalid TAINT_SANITIZERS declaration",
    "sanitizer declarations are trusted by the taint pass; an entry "
    "naming nothing in the module (or lacking a justification) would "
    "silently launder adversarial data",
)
