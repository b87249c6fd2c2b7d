"""The per-processor expansion path, kept as a test-only oracle.

Before correct processors shared expansion views, each kept its own
OUT tables and scalar images: every avalanche decision its batch step
returned was ``learn``-ed into its own :class:`ExpansionState`, every
image was computed again at every processor, and the rebase asked
``expand_scalar`` once per sender.  :class:`ReferenceExpansion` and
:class:`ReferenceProcess` are that path, moved here unchanged;
``tests/compact/test_shared_expansion_views.py`` runs a
:class:`ReferenceProcess` beside every production processor and holds
the shared views to it round by round.

The canonical-node machinery (``expand``, ``defined``, the store-wide
substitution memo) is inherited, not copied: it was per store before
views were shared and still is.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.compact.expansion import ExpansionState
from repro.compact.payload import CompactPayload
from repro.compact.protocol import CompactProcess
from repro.arrays.store import InternedArray
from repro.types import BOTTOM, ProcessId, is_bottom


class ReferenceExpansion(ExpansionState):
    """One processor's own OUT tables and images, learned decision by
    decision."""

    def out_table(self, boundary: int) -> Dict[ProcessId, Any]:
        """All decided slots of one boundary (a snapshot)."""
        return {
            sender: value
            for (slot_boundary, sender), value in self._bindings.items()
            if slot_boundary == boundary
        }

    def expand_scalar(self, boundary: int, scalar: Any) -> Any:
        # The base rule with each defined image remembered (and the
        # index test and table lookup inline: this is the rebase path).
        if boundary == 1:
            return super().expand_scalar(1, scalar)
        if (
            not isinstance(scalar, int)
            or isinstance(scalar, bool)
            or not 1 <= scalar <= self.config.n
        ):
            return BOTTOM
        typed_leaf = (scalar.__class__, scalar)
        cached = self._images[boundary].get(typed_leaf)
        if cached is not None:
            return cached[0]
        agreed = self._bindings.get((boundary, scalar))
        if agreed is None:
            return BOTTOM
        result = self.expand(boundary - 1, agreed)
        if is_bottom(result):
            return BOTTOM
        if (
            self._store is not None
            and isinstance(result, tuple)
            and not self._is_canonical(result)
        ):
            # A plain OUT entry expands to a plain tuple; any array
            # it is substituted into would canonicalise it anyway.
            result = self._store.intern(result)
        token = (
            result.key_token if type(result) is InternedArray
            else (result.__class__, result)
        )
        self._images[boundary][typed_leaf] = (result, token)
        return result


class ReferenceProcess(CompactProcess):
    """Protocol 3 with a :class:`ReferenceExpansion` of its own."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.expansion = ReferenceExpansion(
            self.config, self.expansion._alphabet, store=self._store
        )

    def _side_channel(self, incoming: Dict[ProcessId, Any]) -> None:
        if not self._batches:
            return
        # Each payload read its vote slots once, into a map by boundary
        # (a sender's first slot for a boundary is the one that counts).
        components: Dict[int, Dict[ProcessId, Any]] = {
            boundary: {} for boundary in self._batches
        }
        for sender, message in incoming.items():
            if type(message) is CompactPayload:
                votes = message.votes_by_boundary
                for boundary, by_sender in components.items():
                    by_sender[sender] = votes.get(boundary)
        for boundary, batch in self._batches.items():
            for subject, value in batch.step(components[boundary]):
                self.expansion.learn((boundary, subject), value)  # OUT[b][q]

    def _rebase(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        own = self.process_id
        references = tuple(
            sender
            if self.expansion.expand_scalar(block, sender) is not BOTTOM
            else own
            for sender in self.config.process_ids
        )
        self._set_core(self._store.intern(references), block)
