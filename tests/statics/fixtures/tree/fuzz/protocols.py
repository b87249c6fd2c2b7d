"""Fixture registry: one spec violating CON003 and CON004, one stale
exemption violating CON002."""

CATALOG_EXEMPT = {
    "ghost_factory": "exempts a factory that does not exist (CON002)",
    "impure_factory": "a valid exemption: the purity fixture's factory "
    "is deliberately unregistered",
}


register(  # noqa: F821 - parsed, never run
    ProtocolSpec(  # noqa: F821 - parsed, never run
        name="registered",
        build=lambda config: registered_factory(),  # noqa: F821
        rounds=None,
    )
)
