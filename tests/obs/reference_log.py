"""An event log whose ``send`` entries are rendered afresh.

:class:`~repro.obs.events.EventLog` builds a ``send`` record's
``messages`` text from memoised parts: each tail's text, each entry's
text and each broadcast's text are kept in ``lru_cache``s.
:class:`ReferenceLog` writes the same records but renders every entry
list with one ``json.dumps`` of its values, remembering nothing, so a
stale memo shows up as a line that differs from this log's.  Like the
real sink it hands the network text, so the network's own per-payload
tail memo works unchanged in front of it.
"""

import json

from repro.obs.events import EventLog

_SEPARATORS = (", ", ": ")


class ReferenceLog(EventLog):
    """:class:`EventLog` with ``json.dumps`` for every entry list."""

    def tail(self, *fields):
        return json.dumps(fields, separators=_SEPARATORS)

    def entries(self, heads, tails):
        return json.dumps(
            [[head, *json.loads(tail)] for head, tail in zip(heads, tails)],
            separators=_SEPARATORS,
        )

    def uniform_entries(self, heads, tail):
        return self.entries(heads, [tail] * len(heads))
