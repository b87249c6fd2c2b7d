"""Byzantine adversary strategies.

Each strategy chooses arbitrary messages for the faulty processors,
with full knowledge of this round's correct traffic (rushing).  The
strategies here cover the attack surfaces the paper's proofs defend
against:

* :class:`SilentAdversary` — sends nothing (detectable omissions);
* :class:`RandomGarbageAdversary` — random plausible values, fresh per
  recipient (equivocation without intent);
* :class:`EquivocatingAdversary` — deliberate two-faced behaviour:
  value ``a`` to one half of the recipients, value ``b`` to the other;
* :class:`VoteSplitterAdversary` — inspects the round's correct votes
  and sends whatever keeps the correct population maximally divided;
  the strongest practical attack against quorum-threshold protocols
  such as avalanche agreement (Protocol 2);
* :class:`MalformedArrayAdversary` — structurally invalid payloads
  (ragged arrays, wrong widths, multi-value messages) exercising the
  "obviously erroneous, discarded immediately" validation paths;
* :class:`CollusionAdversary` — all faulty processors mirror one
  correct processor's messages to half the recipients and another's to
  the rest, producing traffic that passes all well-formedness checks
  yet is mutually inconsistent (the attack the compact protocol's
  avalanche layer exists to neutralise);
* :class:`StrategyTable` — per-processor heterogeneous strategies.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, RoundContext
from repro.types import BOTTOM, ProcessId, Round, Value


class _TwoFacedAdversary(Adversary):
    """A strategy that tells the low half of the ids one thing and the
    high half another; the halves are split once per binding."""

    def bind(self, config, rng) -> None:  # type: ignore[override]
        super().bind(config, rng)
        ids = config.process_ids  # already sorted
        middle = config.n // 2
        self._halves = (list(ids[:middle]), list(ids[middle:]))


class SilentAdversary(Adversary):
    """Faulty processors send no messages at all."""

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        return {}


class RandomGarbageAdversary(Adversary):
    """Sends a random value from ``palette`` to each recipient.

    With no palette, draws from the values seen in the input vector,
    so the garbage is always *plausible* (in ``V``) — a harder case
    than detectable junk.
    """

    def __init__(
        self, faulty_ids: Iterable[ProcessId], palette: Optional[Sequence[Value]] = None
    ):
        super().__init__(faulty_ids)
        self._palette = list(palette) if palette is not None else None

    def _values(self, context: RoundContext) -> List[Value]:
        if self._palette:
            return self._palette
        seen = sorted(set(context.inputs.values()), key=repr)
        return seen or [0]

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        palette = self._values(context)
        # One draw per burst: the same stream as one scalar draw per
        # receiver, in receiver order (tests/adversary/test_byzantine.py).
        picks = self.rng.integers(0, len(palette), size=self.config.n)
        return {
            receiver: palette[pick]
            for receiver, pick in zip(self.config.process_ids, picks.tolist())
        }


class EquivocatingAdversary(_TwoFacedAdversary):
    """Classic two-faced behaviour: ``value_a`` to half, ``value_b`` to half."""

    def __init__(
        self,
        faulty_ids: Iterable[ProcessId],
        value_a: Value,
        value_b: Value,
    ):
        super().__init__(faulty_ids)
        self.value_a = value_a
        self.value_b = value_b

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        low_half, high_half = self._halves
        messages: Dict[ProcessId, Any] = dict.fromkeys(low_half, self.value_a)
        messages.update(dict.fromkeys(high_half, self.value_b))
        return messages


class VoteSplitterAdversary(_TwoFacedAdversary):
    """Keeps a voting protocol's correct population divided.

    Tallies the round's correct messages (treated as votes), finds the
    two leading values, and sends the leader to recipients it wants to
    starve and the runner-up to the rest — the adversarial schedule
    that maximises the chance no value reaches a ``2t + 1`` quorum.
    """

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        tally: Dict[Value, int] = {}
        for correct_sender in context.correct_senders():
            vote = context.correct_message(correct_sender, sender)
            if vote is BOTTOM:
                continue
            if isinstance(vote, tuple):
                continue  # not a scalar vote; skip
            try:
                tally[vote] = tally.get(vote, 0) + 1
            except TypeError:
                continue  # unhashable payload: nothing to split on
        if not tally:
            return {}
        leader, runner_up = _two_leading(tally)
        low_half, high_half = self._halves
        messages: Dict[ProcessId, Any] = dict.fromkeys(low_half, runner_up)
        messages.update(dict.fromkeys(high_half, leader))
        return messages


def _two_leading(tally: Dict[Value, int]) -> Tuple[Value, Value]:
    """The first two votes of ``tally`` ranked by count, descending,
    then by ``repr`` (the leader twice when it is alone) — which is
    ``sorted(tally.items(), key=(-count, repr))`` with ``repr`` taken
    only of votes tied on a count that decides the pair."""
    by_count: Dict[int, List[Value]] = {}
    for vote, count in tally.items():
        by_count.setdefault(count, []).append(vote)
    ranked: List[Value] = []
    for count in sorted(by_count, reverse=True):
        votes = by_count[count]
        if len(votes) == 1:
            ranked.extend(votes)
        else:
            ranked.extend(sorted(votes, key=repr)[: 2 - len(ranked)])
        if len(ranked) >= 2:
            return ranked[0], ranked[1]
    return ranked[0], ranked[0]


class MalformedArrayAdversary(Adversary):
    """Sends structurally invalid payloads to exercise validation.

    Rotates through a menu of malformations: ragged tuples, wrong-width
    tuples, over-deep nesting, and Python objects that are not legal
    values at all.  A correct implementation must shrug all of these
    off (discard and substitute), never crash.

    The menu is built once per binding, so every round and every
    faulty sender sends the same five objects.
    """

    def bind(self, config, rng) -> None:  # type: ignore[override]
        super().bind(config, rng)
        n = config.n
        self._menu: Tuple[Any, ...] = (
            tuple(0 for _ in range(n + 1)),          # wrong width
            ((0,), 0) + tuple(0 for _ in range(n - 2)) if n >= 2 else (0,),
            tuple(((0,) * n,) for _ in range(n)),     # ragged depth
            object(),                                  # unhashable-ish junk
            ("two", "values"),
        )

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        process_ids = self.config.process_ids
        menu = self._menu
        messages: Dict[ProcessId, Any] = {}
        for index, receiver in enumerate(process_ids):
            messages[receiver] = menu[(round_number + index) % len(menu)]
        return messages


class CollusionAdversary(_TwoFacedAdversary):
    """Mirrors real correct traffic, inconsistently, to different halves.

    To half the recipients each faulty processor replays the messages
    of correct processor ``mimic_a``; to the other half, those of
    ``mimic_b``.  Every message is well-formed and expandable — the
    inconsistency is only visible by comparing recipients' views, which
    is exactly what avalanche agreement forces the system to do.
    """

    def __init__(
        self,
        faulty_ids: Iterable[ProcessId],
        mimic_a: Optional[ProcessId] = None,
        mimic_b: Optional[ProcessId] = None,
    ):
        super().__init__(faulty_ids)
        self._mimic_a = mimic_a
        self._mimic_b = mimic_b

    def _pick_mimics(self, context: RoundContext) -> Tuple[ProcessId, ProcessId]:
        correct = sorted(context.correct_senders())
        if not correct:
            return (0, 0)
        mimic_a = self._mimic_a if self._mimic_a in correct else correct[0]
        mimic_b = self._mimic_b if self._mimic_b in correct else correct[-1]
        return mimic_a, mimic_b

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        mimic_a, mimic_b = self._pick_mimics(context)
        if not mimic_a:
            return {}
        low_half, high_half = self._halves
        messages: Dict[ProcessId, Any] = {}
        for receiver in low_half:
            messages[receiver] = context.correct_message(mimic_a, receiver)
        for receiver in high_half:
            messages[receiver] = context.correct_message(mimic_b, receiver)
        return messages


class StrategyTable(Adversary):
    """Heterogeneous faults: a different strategy per faulty processor.

    Wraps single-processor strategies; each sub-strategy is bound with
    the same configuration and draws from the table's one RNG stream.
    """

    def __init__(self, strategies: Mapping[ProcessId, Adversary]):
        super().__init__(strategies.keys())
        self._strategies = dict(strategies)

    def bind(self, config, rng) -> None:  # type: ignore[override]
        super().bind(config, rng)
        for process_id, strategy in sorted(self._strategies.items()):
            # Sub-strategies may declare fewer faulty ids than they are
            # assigned; rebind them to their own slot.
            strategy.faulty_ids = frozenset({process_id})
            strategy.bind(config, lambda: self.rng)

    def outgoing(
        self, round_number: Round, sender: ProcessId, context: RoundContext
    ) -> Dict[ProcessId, Any]:
        return self._strategies[sender].outgoing(round_number, sender, context)

    def observe_round(self, round_number, context, faulty_outgoing) -> None:
        # Ghost-running sub-strategies (crash, omission) need the
        # end-of-round hook to keep their honest copies in step.
        for _, strategy in sorted(self._strategies.items()):
            strategy.observe_round(round_number, context, faulty_outgoing)
