"""Synchronous approximate agreement (Fekete [9], Dolev et al. [7]).

The paper names approximate agreement twice: Fekete's protocol as an
example of exponential communication the transformation can repair
(Section 5.6: "our technique is more general and may therefore have
greater applicability, e.g., reducing the communications cost of the
approximate agreement protocol of Fekete"), and the problem itself as
one of the consensus problems the formalism covers.

Correct processors hold numeric inputs and must decide values that are
(a) within ``epsilon`` of one another and (b) inside the range of the
correct inputs.  One exchange round with the *fault-tolerant
midpoint* reduction achieves both with a per-round convergence factor
of 1/2 for ``n >= 3t + 1``:

* broadcast the current value; substitute your own value for missing
  or malformed receptions (so the multiset always has ``n`` entries);
* sort, discard the ``t`` lowest and ``t`` highest (with at most ``t``
  faulty entries, what survives lies inside the correct range);
* move to the midpoint of the surviving range.

Two correct processors' trimmed ranges overlap (they share at least
``n - 2t`` correct entries), so their midpoints differ by at most half
the correct spread — running ``ceil(log2(range / epsilon))`` rounds
lands everyone within ``epsilon``.

Provided both as runnable processes over floats
(:class:`ApproximateProcess`) and, for the canonical-form transform
(which needs a finite alphabet), as an automaton over a fixed-point
grid (:class:`ApproximateAgreementAutomaton`) whose rounding adds at
most one grid step to the final spread.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.automaton import AutomatonProtocol
from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value


#: Protoflow taint: every reception is coerced through the numeric
#: legality filter (or replaced by the processor's own value).
TAINT_SANITIZERS = {
    "_as_number": (
        "accepts only finite ints/floats (bools excluded); anything "
        "else is replaced by the receiver's own current value before "
        "the trimmed midpoint"
    ),
    "_trimmed_midpoint": (
        "discards the t lowest and t highest entries; with at most t "
        "faulty values the surviving range lies inside the correct "
        "inputs' range"
    ),
}


def _trimmed_midpoint(values: List[float], t: int) -> float:
    """The fault-tolerant midpoint: trim ``t`` from each end, then mid."""
    ordered = sorted(values)
    trimmed = ordered[t : len(ordered) - t] if t else ordered
    return (trimmed[0] + trimmed[-1]) / 2.0


def _as_number(message: Any) -> Optional[float]:
    if isinstance(message, bool):
        return None
    if isinstance(message, (int, float)) and math.isfinite(message):
        return float(message)
    return None


class ApproximateProcess(Process):
    """Float-valued approximate agreement for ``n >= 3t + 1``."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        rounds: int,
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"approximate agreement needs n >= 3t+1; got n={config.n}, "
                f"t={config.t}"
            )
        number = _as_number(input_value)
        if number is None:
            raise ConfigurationError(f"numeric input required; got {input_value!r}")
        self.value = number
        self.rounds = rounds

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(self.value, self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        values = []
        for sender in self.config.process_ids:
            number = _as_number(incoming[sender])
            values.append(number if number is not None else self.value)
        self.value = _trimmed_midpoint(values, self.config.t)
        if round_number >= self.rounds:
            self.decide(self.value, round_number)

    def snapshot(self) -> Any:
        return {"value": self.value, "decision": self.decision}


def approximate_factory(rounds: int):
    """A run_protocol factory for float approximate agreement."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> ApproximateProcess:
        return ApproximateProcess(process_id, config, input_value, rounds=rounds)

    return factory


class ApproximateAgreementAutomaton(AutomatonProtocol):
    """Approximate agreement over a fixed-point grid, for the transform.

    The alphabet is ``{low, low + step, ..., high}`` represented as
    integers scaled by ``1 / step``.  Transitions compute the
    fault-tolerant midpoint and round it back to the grid; rounding
    introduces at most ``step / 2`` of drift per round, so the final
    spread is at most ``epsilon + step``.
    """

    def __init__(
        self,
        config: SystemConfig,
        grid: Sequence[int],
        rounds: int,
    ):
        ordered = sorted(set(int(value) for value in grid))
        super().__init__(config, ordered)
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self._grid = ordered
        self._rounds = rounds

    @property
    def rounds_to_decide(self) -> int:
        return self._rounds

    # States after round 0 are ("approx", round, value) triples so the
    # automaton itself knows when its horizon has passed; the initial
    # state is the bare input value, as the formalism requires.

    def message(self, sender: ProcessId, receiver: ProcessId, state: Any) -> Any:
        return state

    def transition(self, process_id: ProcessId, messages: Tuple[Any, ...]) -> Any:
        own_round, own_value = self._parse(messages[process_id - 1])
        if own_value is None:
            own_round, own_value = 0, self._grid[0]
        values = []
        for message in messages:
            _, value = self._parse(message)
            values.append(float(value) if value is not None else float(own_value))
        midpoint = _trimmed_midpoint(values, self.config.t)
        return ("approx", own_round + 1, self._snap(midpoint))

    def decision(self, process_id: ProcessId, state: Any) -> Value:
        round_number, value = self._parse(state)
        if value is None or round_number < self._rounds:
            return BOTTOM
        return value

    def _parse(self, state: Any) -> Tuple[int, Optional[int]]:
        """(round, value) from a state or message; (0, None) if junk."""
        if self._on_grid(state):
            return 0, int(state)
        if (
            isinstance(state, tuple)
            and len(state) == 3
            and state[0] == "approx"
            and isinstance(state[1], int)
            and not isinstance(state[1], bool)
            and state[1] >= 1
            and self._on_grid(state[2])
        ):
            return state[1], int(state[2])
        return 0, None

    def _on_grid(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and value in self.input_values
        )

    def _snap(self, value: float) -> int:
        return min(self._grid, key=lambda point: (abs(point - value), point))
