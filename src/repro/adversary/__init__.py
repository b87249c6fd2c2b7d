"""Fault models and adversary strategies.

The paper's protocols are proved against a *Byzantine* adversary:
failed processors send arbitrary messages, chosen with full knowledge
of the system (the network hands each strategy a view of the round's
correct traffic before the faulty messages are fixed — a rushing
adversary).  More benign models (fail-stop, omission) are included
because the paper's transformation specialises to them with no round
overhead (Section 1).

Strategies are deterministic given their seeded RNG, so any execution
is replayable from ``(protocol, inputs, adversary, seed)``.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "base": ("Adversary", "PassiveAdversary", "RoundContext"),
    "byzantine": (
        "CollusionAdversary",
        "EquivocatingAdversary",
        "MalformedArrayAdversary",
        "RandomGarbageAdversary",
        "SilentAdversary",
        "StrategyTable",
        "VoteSplitterAdversary",
    ),
    "crash": ("CrashAdversary",),
    "omission": ("OmissionAdversary",),
})
