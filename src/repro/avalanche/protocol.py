"""Protocol 2: the avalanche agreement protocol.

::

    Initialization for processor p:
        VAL <- the initial value of processor p       (possibly none)
    Code for processor p in round r:
        1. broadcast VAL
        2. receive MSG_q from processor q for 1 <= q <= n
        3. let ANS be the most frequent non-bottom message (ties broken
           arbitrarily — here: deterministically)
        4. let NUM be the number of occurrences of ANS
        5. if r = 1 then
        6.     if NUM >= 2t+1 then VAL <- ANS else VAL <- bottom
        7. if r > 1 then
        8.     if NUM >= t+1  then VAL <- ANS
        9.     if NUM >= 2t+1 and have not decided yet then decide VAL

Processors keep participating after deciding.  A message carrying more
than one value is "obviously erroneous and discarded immediately" —
here, anything that is not a scalar legal value is discarded.

**Threshold generalisation.**  The paper states Protocol 2 for the
tight case ``n = 3t + 1``, where Lemma 3 (at most one persistent
value) uses ``2t + 1``-vote quorums overlapping in a correct
processor: ``2 * (2t+1) - (3t+1) = t + 1 > t``.  For ``n > 3t + 1``
that arithmetic needs the round-1 adoption quorum raised to any
``theta`` with ``2 * theta - n > t``; we use the least such,
``theta = floor((n + t) / 2) + 1``, which equals ``2t + 1`` when
``n = 3t + 1``.  The adoption (``t + 1``) and decision (``2t + 1``)
thresholds of later rounds are correct for every ``n >= 3t + 1``
unchanged.  Tests cover both the tight and the generalised case.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom


@dataclasses.dataclass(frozen=True)
class Thresholds:
    """Vote quorums for one avalanche-style protocol.

    ``round1_decide`` is ``None`` for standard avalanche agreement
    (no round-1 decisions); the fast variant sets it to ``n - t``.
    """

    round1_adopt: int
    later_adopt: int
    decide: int
    round1_decide: Optional[int] = None


@functools.lru_cache()
def standard_thresholds(config: SystemConfig) -> Thresholds:
    """Protocol 2 thresholds, generalised to any ``n >= 3t + 1``.

    Computed once per config: every processor of a run shares the one
    (frozen) result.
    """
    if not config.requires_byzantine_quorum():
        raise ConfigurationError(
            f"avalanche agreement needs n >= 3t+1; got n={config.n}, t={config.t}"
        )
    return Thresholds(
        round1_adopt=(config.n + config.t) // 2 + 1,
        later_adopt=config.t + 1,
        decide=2 * config.t + 1,
        round1_decide=None,
    )


class AvalancheInstance:
    """One processor's Protocol 2 state machine, runtime-agnostic.

    The compact full-information protocol runs many of these in
    parallel as subprotocol components (Section 5.2); the standalone
    :class:`AvalancheProcess` wraps a single one.  Drive it with
    :meth:`message` (what to broadcast this round) followed by
    :meth:`step` (the round's received votes).
    """

    def __init__(
        self,
        config: SystemConfig,
        input_value: Value = BOTTOM,
        thresholds: Optional[Thresholds] = None,
        value_ok: Optional[Callable[[Any], bool]] = None,
    ):
        """
        Parameters
        ----------
        input_value:
            The processor's input, or :data:`BOTTOM` for "no input"
            (legal — some processors may begin with no input).
        thresholds:
            Defaults to :func:`standard_thresholds`.
        value_ok:
            Extra vote validation; votes failing it are discarded like
            multi-value messages.  ``None`` accepts any hashable
            scalar.
        """
        self.config = config
        self.thresholds = thresholds or standard_thresholds(config)
        self.val: Value = input_value
        self.input_value: Value = input_value
        self._value_ok = value_ok
        self.rounds_completed = 0
        self.decision: Value = BOTTOM
        self.decision_round: Optional[int] = None

    # -- round interface -------------------------------------------------

    def message(self) -> Value:
        """The vote to broadcast in the coming round (may be BOTTOM)."""
        return self.val

    def step(self, votes: Sequence[Any]) -> None:
        """Consume one round of received votes (one slot per processor).

        ``votes[q - 1]`` is the raw message from processor ``q``; any
        non-scalar, unhashable, or ``value_ok``-rejected entry is
        discarded, exactly like the paper's "obviously erroneous"
        messages.
        """
        if len(votes) != self.config.n:
            raise ConfigurationError(
                f"expected {self.config.n} vote slots, got {len(votes)}"
            )
        self.rounds_completed += 1
        answer, count = self._tally(votes)
        if self.rounds_completed == 1:
            if count >= self.thresholds.round1_adopt:
                self.val = answer
            else:
                self.val = BOTTOM
            if (
                self.thresholds.round1_decide is not None
                and count >= self.thresholds.round1_decide
            ):
                self._decide(answer)
        else:
            if count >= self.thresholds.later_adopt:
                self.val = answer
            if count >= self.thresholds.decide and not self.has_decided():
                self._decide(self.val)

    # -- internals -----------------------------------------------------------

    def _tally(self, votes: Sequence[Any]) -> Tuple[Value, int]:
        """The most frequent legal vote and its count.

        Ties are broken deterministically (lowest ``repr``), which is
        one way of the paper's "break ties arbitrarily".
        """
        # A vote is legal when it is present (not BOTTOM or None),
        # accepted by value_ok and hashable; the loop runs once per
        # received vote slot system-wide.
        value_ok = self._value_ok
        legal: List[Any] = []
        for vote in votes:
            if vote is BOTTOM or vote is None:
                continue
            if value_ok is not None and not value_ok(vote):
                continue
            legal.append(vote)
        if not legal:
            return BOTTOM, 0
        # A healthy round is homogeneous — every legal vote equals the
        # first — and needs no counting dict at all.  The hash probe
        # (the "obviously erroneous" filter for unhashable garbage)
        # still runs, once, on the representative.
        first = legal[0]
        homogeneous = True
        for vote in legal:
            if vote is not first and vote != first:
                homogeneous = False
                break
        if homogeneous:
            try:
                hash(first)
            except TypeError:  # unhashable — "obviously erroneous"
                return BOTTOM, 0
            return first, len(legal)
        counts: Dict[Value, int] = {}
        for vote in legal:
            try:
                seen = counts.get(vote, 0)
            except TypeError:
                continue
            counts[vote] = seen + 1
        if not counts:
            return BOTTOM, 0
        # Single pass for the max count; repr (the deterministic
        # tie-break) is only computed when two values actually tie,
        # which almost never happens in a healthy round.
        best: Value = BOTTOM
        best_count = 0
        tied = False
        for vote, count in counts.items():
            if count > best_count:
                best, best_count, tied = vote, count, False
            elif count == best_count:
                tied = True
        if tied:
            best = min(
                (v for v, c in counts.items() if c == best_count), key=repr
            )
        return best, best_count

    def _decide(self, value: Value) -> None:
        if is_bottom(value):
            # A decide-quorum for a value always sets VAL to it first;
            # reaching here would mean the tally machinery is broken.
            raise ConfigurationError("avalanche attempted to decide BOTTOM")
        self.decision = value
        self.decision_round = self.rounds_completed

    def has_decided(self) -> bool:
        """Whether this instance has irrevocably decided."""
        return not is_bottom(self.decision)


class AvalancheProcess(Process):
    """Protocol 2 as a standalone runtime process (experiment E1)."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        thresholds: Optional[Thresholds] = None,
    ):
        super().__init__(process_id, config)
        self.instance = AvalancheInstance(
            config, input_value=input_value, thresholds=thresholds
        )

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(self.instance.message(), self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        votes = [incoming[sender] for sender in self.config.process_ids]
        self.instance.step(votes)
        if self.instance.has_decided() and not self.has_decided():
            self.decide(self.instance.decision, round_number)

    def snapshot(self) -> Any:
        return {
            "val": self.instance.val,
            "decision": self.instance.decision,
        }


def avalanche_factory(thresholds: Optional[Thresholds] = None):
    """A run_protocol factory for standalone avalanche agreement."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> AvalancheProcess:
        return AvalancheProcess(
            process_id, config, input_value, thresholds=thresholds
        )

    return factory
