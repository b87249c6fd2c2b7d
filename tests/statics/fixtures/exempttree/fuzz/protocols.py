"""Fixture registry: every ``CATALOG_EXEMPT`` entry breaks the grammar.

A declaration entry is ``"name": "non-blank justification"``; each
entry below is malformed in a different way and must be a CON002
finding instead of a silently accepted (or silently dropped) exemption.
"""

CATALOG_EXEMPT = {
    "silent_factory": "",
    "numeric_factory": 7,
    13: "a key that names nothing",
}
