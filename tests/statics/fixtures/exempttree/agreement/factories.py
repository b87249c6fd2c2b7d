"""Fixture: two factories whose exemptions carry no justification."""


def silent_factory():
    """Exempted with an empty string: still unregistered (CON001)."""


def numeric_factory():
    """Exempted with a number: still unregistered (CON001)."""
