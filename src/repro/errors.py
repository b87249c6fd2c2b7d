"""Exception hierarchy for the repro library.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A protocol or system was configured with invalid parameters.

    Raised, for example, when an avalanche agreement instance is asked
    to tolerate ``t`` faults with fewer than ``3t + 1`` processors.
    """


class SystemConfigError(ConfigurationError, ValueError):
    """An ``(n, t)`` no system has; also the :class:`ValueError` that
    :class:`~repro.types.SystemConfig` raised before it had a class."""


class ProtocolViolation(ReproError):
    """A correct processor observed behaviour that breaks the protocol.

    This is an *internal consistency* failure: correct processors must
    never trigger it against each other.  Tests use it to assert that
    invariants (e.g. the lemmas of Section 5.4) hold at runtime.
    """


class SimulationMismatch(ReproError):
    """The simulation relation of Section 3.1 failed to hold.

    Raised by the simulation checker when
    ``f_p(state(p, i, E')) != state(p, r(i), E)`` for some correct
    processor ``p`` and round ``i``.
    """


class DecisionError(ReproError):
    """A decision was requested or produced in an illegal way.

    Examples: asking for the decision of a processor that has not
    decided, or a protocol attempting to change an irrevocable
    decision.
    """


class EncodingError(ReproError):
    """A message could not be encoded or measured for transmission."""


class AdversaryError(ReproError):
    """An adversary strategy was used outside its supported model."""
