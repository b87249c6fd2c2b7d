"""Test-only adversaries that understand the compact protocol's wire format.

The generic strategies in :mod:`repro.adversary.byzantine` attack any
protocol; these attack Protocol 3 *specifically*, aiming at the
mechanisms its proofs defend:

* :class:`StaleCoreAdversary` — replays earlier rounds' CORE arrays as
  the main component (wrong depth for the phase: must be detected by
  shape validation and substituted);
* :class:`ForgedIndexAdversary` — sends *well-shaped, expandable, but
  fabricated* index arrays (e.g. claiming every component came from
  processor 1).  These pass every local check — which is fine: they
  correspond to messages a faulty processor may legally send in the
  simulated execution, and agreement must hold regardless;
* :class:`SpliceAdversary` — splices the main component of one correct
  processor's payload with the avalanche votes of another, to push
  inconsistency between the main protocol and its subprotocols;
* :class:`AvalancheEquivocator` — participates normally in the main
  component but equivocates *inside* the avalanche components, voting
  differently to different receivers in every instance — a direct
  attack on the agreement that expansion functions are built from.

The failure-injection, golden-report and shared-state tests run
Protocol 3 under each of them: the compact protocol must keep
agreement, validity, the step-5 invariant, and OUT consistency.  No
CLI adversary, sweep or benchmark workload uses them
(:func:`repro.analysis.sweeps.standard_adversary_makers` does not), so
they live beside the tests.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.adversary.base import Adversary, RoundContext
from repro.compact.payload import CompactPayload
from repro.types import BOTTOM, ProcessId, Round


def _correct_payload(context: RoundContext, sender: ProcessId,
                     receiver: ProcessId) -> Any:
    message = context.correct_message(sender, receiver)
    return message if isinstance(message, CompactPayload) else None


def _some_correct(context: RoundContext) -> List[ProcessId]:
    return sorted(context.correct_senders())


class StaleCoreAdversary(Adversary):
    """Replays the previous round's main component.

    A stale CORE has the wrong depth for the current phase, so correct
    receivers must reject and substitute it.  The first round (nothing
    stale yet) falls back to a legal-looking value.
    """

    def __init__(self, faulty_ids):
        super().__init__(faulty_ids)
        self._previous: Dict[ProcessId, Any] = {}

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        correct = _some_correct(context)
        if not correct:
            return {}
        current = _correct_payload(context, correct[0], sender)
        stale_main = self._previous.get(sender, BOTTOM)
        if current is not None:
            self._previous[sender] = current.main
        payload = CompactPayload(
            main=stale_main,
            votes=current.votes if current is not None else (),
        )
        return {receiver: payload for receiver in self.config.process_ids}


class ForgedIndexAdversary(Adversary):
    """Sends well-shaped index arrays crediting everything to node 1.

    From block 2 on, a main component of the right depth whose leaves
    are all ``1`` is usually *expandable* (OUT[b][1] exists), so the
    receiver incorporates a coherent lie.  Agreement must survive — in
    the simulated execution this is simply a faulty processor sending
    a particular legal value array.
    """

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        correct = _some_correct(context)
        if not correct:
            return {}
        template = _correct_payload(context, correct[0], sender)
        if template is None or template.main is BOTTOM:
            return {
                receiver: CompactPayload(
                    main=BOTTOM,
                    votes=template.votes if template else (),
                )
                for receiver in self.config.process_ids
            }
        forged_main = self._forge_like(template.main)
        payload = CompactPayload(main=forged_main, votes=template.votes)
        return {receiver: payload for receiver in self.config.process_ids}

    def _forge_like(self, array: Any) -> Any:
        if isinstance(array, tuple):
            return tuple(self._forge_like(component) for component in array)
        if isinstance(array, int) and not isinstance(array, bool):
            if 1 <= array <= self.config.n:
                return 1  # credit everything to processor 1
        return array  # block-1 values left as-is (still well-formed)


class SpliceAdversary(Adversary):
    """Main component from one correct node, votes from another."""

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        correct = _some_correct(context)
        if len(correct) < 2:
            return {}
        messages: Dict[ProcessId, Any] = {}
        for receiver in self.config.process_ids:
            first = _correct_payload(context, correct[0], receiver)
            second = _correct_payload(context, correct[-1], receiver)
            if first is None or second is None:
                continue
            messages[receiver] = CompactPayload(
                main=first.main, votes=second.votes
            )
        return messages


class AvalancheEquivocator(Adversary):
    """Honest-looking main component, equivocating avalanche votes.

    For each receiver, every vote slot of every batch is replaced by a
    receiver-dependent value copied from a different correct
    processor's payload — the maximal legal-looking inconsistency the
    avalanche layer can be fed.
    """

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        correct = _some_correct(context)
        if not correct:
            return {}
        messages: Dict[ProcessId, Any] = {}
        for index, receiver in enumerate(self.config.process_ids):
            # Rotate which correct processor's votes this receiver sees.
            donor = correct[index % len(correct)]
            base = _correct_payload(context, correct[0], receiver)
            donor_payload = _correct_payload(context, donor, receiver)
            if base is None or donor_payload is None:
                continue
            messages[receiver] = CompactPayload(
                main=base.main, votes=donor_payload.votes
            )
        return messages
