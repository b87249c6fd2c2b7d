"""Fixture: a clean automaton base class that a sibling module derives.

Defines none of the replayed functions itself, so nothing fires here.
"""

from repro.core.automaton import AutomatonProtocol


class SharedBase(AutomatonProtocol):
    def horizon(self):
        return 1
