"""Protocol 1: the full-information protocol.

::

    Initialization for processor p:
        STATE <- the initial value of processor p
    Code for processor p in round r:
        1. broadcast STATE
        2. receive MSG_q from processor q for 1 <= q <= n
        3. STATE <- (MSG_1, ..., MSG_n)

A correct round-``r`` message is a depth-``r - 1`` value array.  A
malformed or absent message from a (necessarily faulty) sender is
replaced by the receiver's *own previous state*, which always has the
right shape — the legitimacy of this substitution is exactly what
Theorem 9's Case 3 argues (any well-shaped value array is a message
the faulty processor could have sent).

**Theorem 2's simulation functions.**  :func:`reconstruct_state`
computes ``f_p``: the state an arbitrary protocol ``P`` would have
reached, from a full-information state alone::

    f_p(s) = s                                          if s in V
    f_p(s) = delta_p(mu_1p(f_1(s_1)), ..., mu_np(f_n(s_n)))  otherwise

Composing a protocol's own decision function with ``f_p`` yields a
decision rule for the (compact) full-information protocol that, by
Theorem 1, inherits the original protocol's correctness predicate —
that composition is :class:`DerivedDecisionRule`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import repro.obs.core as _obs
from repro.arrays.encoding import MessageSizer
from repro.arrays.store import shared_store
from repro.core.automaton import AutomatonProtocol
from repro.fullinfo.gate import REJECT, DecisionRule, ReceiveGate
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value


class FullInformationProcess(Process):
    """One processor of Protocol 1 on the synchronous runtime."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        value_alphabet: Sequence[Value],
        decision_rule: Optional[DecisionRule] = None,
        horizon: Optional[int] = None,
    ):
        """
        States are hash-consed through the shared
        :class:`~repro.arrays.store.ArrayStore`: they remain tuples —
        equal, iterable and pickled as plain tuples — but validation
        and sizing are O(new nodes) per round instead of
        O(``n ** round``).

        Parameters
        ----------
        value_alphabet:
            The legal inputs ``V``; received leaves outside it mark a
            message as malformed.
        decision_rule:
            Called after each round with the new state; first
            non-bottom result is decided.  ``None`` runs the exchange
            with no decisions (pure state-building, e.g. under a
            simulation checker).
        horizon:
            If given, the rule is only consulted from this round on
            (saves exponential decision work in earlier rounds).
        """
        super().__init__(process_id, config)
        self.state: Any = input_value
        self._decision_rule = decision_rule
        self._horizon = horizon
        self.rounds_completed = 0
        # One canonical-or-reject gate over the shared store.
        self._gate = ReceiveGate(shared_store(config.n), value_alphabet)

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(self.state, self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        expected_depth = round_number - 1
        gate = self._gate
        components = []
        for sender in self.config.process_ids:
            message = gate.admit(incoming[sender], expected_depth)
            if message is REJECT:
                message = self.state  # own previous state: right shape
            components.append(message)
        self.state = gate.store.intern(tuple(components))
        self.rounds_completed = round_number
        self._maybe_decide(round_number)

    def _maybe_decide(self, round_number: Round) -> None:
        if self.has_decided() or self._decision_rule is None:
            return
        if self._horizon is not None and round_number < self._horizon:
            return
        value = self._decision_rule(self.state, round_number, self.process_id)
        if value is not BOTTOM:
            self.decide(value, round_number)

    def snapshot(self) -> Any:
        return {"state": self.state, "decision": self.decision}


def full_information_factory(
    value_alphabet: Sequence[Value],
    decision_rule: Optional[DecisionRule] = None,
    horizon: Optional[int] = None,
):
    """A run_protocol factory for Protocol 1."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> FullInformationProcess:
        return FullInformationProcess(
            process_id,
            config,
            input_value,
            value_alphabet=value_alphabet,
            decision_rule=decision_rule,
            horizon=horizon,
        )

    return factory


def full_information_sizer(value_alphabet_size: int, n: int) -> Callable[[Any], int]:
    """Exact bit measure for Protocol 1 traffic (all leaves are values)."""
    sizer = MessageSizer(value_alphabet_size, n)
    return sizer.measure_value_array


def reconstruct_state(
    protocol: AutomatonProtocol,
    process_id: ProcessId,
    state: Any,
    _memo: Optional[Dict[Tuple[ProcessId, Any], Any]] = None,
) -> Any:
    """Theorem 2's ``f_p``: protocol ``P``'s state from full information.

    ``state`` is a depth-``i`` value array; the result is the state
    processor ``process_id`` would hold after ``i`` rounds of ``P`` in
    the execution the array describes.  Shared subtrees are memoised —
    without it the recursion revisits the same sub-array once per
    occurrence, and full-information arrays are full of repeats.
    """
    if _memo is None:
        _memo = {}
    if not isinstance(state, tuple):
        return state  # an element of V: an initial state
    key: Tuple[ProcessId, Any]
    try:
        key = (process_id, state)
        if key in _memo:
            observer = _obs.ACTIVE
            if observer is not None:
                observer.count("fullinfo.reconstruct.hit")
            return _memo[key]
    except TypeError:  # unhashable leaf smuggled in; skip memoisation
        key = None  # type: ignore[assignment]
    messages = tuple(
        protocol.message(
            sender,
            process_id,
            reconstruct_state(protocol, sender, state[sender - 1], _memo),
        )
        for sender in protocol.config.process_ids
    )
    result = protocol.transition(process_id, messages)
    if key is not None:
        _memo[key] = result
        observer = _obs.ACTIVE
        if observer is not None:
            observer.count("fullinfo.reconstruct.miss")
    return result


class DerivedDecisionRule:
    """``gamma'_p(s) = gamma_p(f_p(s))`` — Theorem 1's decision functions.

    A callable usable as the ``decision_rule`` of the full-information
    and compact full-information processes.  ``horizon`` suppresses
    evaluation before the round at which the simulated protocol is
    known to decide (evaluating ``f_p`` is exponential, so it should
    run as few times as possible).
    """

    def __init__(
        self,
        protocol: AutomatonProtocol,
        horizon: Optional[int] = None,
    ):
        self.protocol = protocol
        self.horizon = (
            horizon if horizon is not None else protocol.rounds_to_decide
        )
        # Persistent across calls: a round-``r + 1`` state contains the
        # round-``r`` states as sub-arrays (canonically shared nodes
        # when interning is on), so reconstruction of a new round only
        # pays for the top layer.  Sound because ``f_p`` is a pure
        # function of (process, sub-array) for a fixed protocol.
        self._memo: Dict[Tuple[ProcessId, Any], Any] = {}

    def __call__(self, state: Any, simulated_round: int, process_id: ProcessId) -> Value:
        if self.horizon is not None and simulated_round < self.horizon:
            return BOTTOM
        reconstructed = reconstruct_state(
            self.protocol, process_id, state, self._memo
        )
        return self.protocol.decision(process_id, reconstructed)


class FullInformationAutomaton(AutomatonProtocol):
    """Protocol 1 in the Section 3.1 automaton formalism.

    Used by the Theorem 2 tests: the identity scaling function and the
    recursive ``f_p`` of :func:`reconstruct_state` witness that this
    protocol simulates any consensus protocol.
    """

    def __init__(
        self,
        config: SystemConfig,
        input_values: Sequence[Value],
        decision_rule: Optional[DecisionRule] = None,
        horizon: Optional[int] = None,
    ):
        super().__init__(config, input_values)
        self._decision_rule = decision_rule
        self._horizon = horizon

    def message(self, sender: ProcessId, receiver: ProcessId, state: Any) -> Any:
        return state  # broadcast the entire state

    def transition(self, process_id: ProcessId, messages: Tuple[Any, ...]) -> Any:
        return tuple(messages)

    def decision(self, process_id: ProcessId, state: Any) -> Value:
        if self._decision_rule is None:
            return BOTTOM
        from repro.arrays.value_array import array_depth

        try:
            depth = array_depth(state, self.config.n)
        except Exception:
            return BOTTOM
        if self._horizon is not None and depth < self._horizon:
            return BOTTOM
        return self._decision_rule(state, depth, process_id)
