"""Rule metadata for the two protoflow families (COM / TAINT)."""

from __future__ import annotations

from repro.statics.rules import rule

COM001 = rule(
    "COM001",
    "com",
    "history-accumulating payload without a justified bound",
    "Theorem 5 exists precisely to avoid full-information message "
    "growth; a sender whose per-round bits grow with history should "
    "route through repro.compact or declare why not",
)
COM002 = rule(
    "COM002",
    "com",
    "declared bound below the inferred bound",
    "a MESSAGE_BOUNDS entry tighter than what abstract interpretation "
    "infers needs a justification (e.g. a depth cap the analysis "
    "cannot see), or the declared bound is wishful",
)
COM003 = rule(
    "COM003",
    "com",
    "missing or invalid MESSAGE_BOUNDS declaration",
    "every certified protocol must state its per-round bound so the "
    "pass can compare declared against inferred; dead or "
    "malformed entries drift from the tree",
)
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
