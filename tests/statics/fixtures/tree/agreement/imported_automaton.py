"""Fixture: an automaton whose base class lives in a sibling module.

Nothing in this file says ``AutomatonProtocol``: only the tree-wide
class hierarchy makes ``ImportedAutomaton.transition`` one of the
functions Theorem 2 replays (PUR001 for the I/O, PUR004 for the
``self`` write).
"""

from repro.agreement.shared_base import SharedBase


class ImportedAutomaton(SharedBase):
    def transition(self, process_id, messages):
        print(messages)
        self.seen = messages
        return messages
