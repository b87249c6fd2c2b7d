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
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs.core as _obs
from repro.arrays.encoding import MessageSizer
from repro.arrays.store import ArrayStore, InternedArray, shared_store
from repro.arrays.value_array import is_index_scalar
from repro.core.automaton import AutomatonProtocol
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value

#: Returned for a rejected message.  A sentinel rather than ``None``
#: because ``None`` is a perfectly good alphabet value.
REJECT = object()

# A decision rule examines (state, simulated_round, process_id) and
# returns a value or BOTTOM.
DecisionRule = Callable[[Any, int, ProcessId], Value]

#: Protoflow taint: the receive path runs every incoming message
#: through a legality filter before it can enter STATE.
TAINT_SANITIZERS = {
    "ReceiveGate.admit": (
        "exact depth, exact width n at every level, every leaf in the "
        "alphabet V — anything else is REJECT, which callers replace "
        "by the receiver's own previous state (Theorem 9 Case 3)"
    ),
}


def _alphabet_predicate(alphabet: FrozenSet[Value]) -> Callable[[Any], bool]:
    """``leaf in alphabet`` that answers ``False`` for unhashable junk."""

    def leaf_ok(leaf: Any) -> bool:
        try:
            return leaf in alphabet
        except TypeError:  # unhashable leaf from a Byzantine sender
            return False

    return leaf_ok


def leaves_satisfy(
    node: InternedArray,
    policy: Tuple[str, Any],
    leaf_ok: Callable[[Any], bool],
) -> bool:
    """Whether every leaf of the canonical ``node`` satisfies ``leaf_ok``.

    ``policy`` names the (immutable) predicate — ``("alphabet",
    frozenset(V))`` or ``("indices", n)`` — and keys the verdict in
    :attr:`~repro.arrays.store.ArrayStore.verdicts`, so a node is
    vetted once per store, whichever processor, gate or expansion
    asks; a subtree vetted at round ``r`` is the *same node* inside
    round ``r + 1`` states.  Exact: a leaf predicate's verdict depends
    only on the leaf, so scanning ``leaves_unique`` is equivalent to
    scanning all ``n ** depth`` occurrences.  Negative verdicts are
    kept too: neither predicate ever changes.
    """
    verdicts = node.store.verdicts
    key = (policy, node.key_token)
    verdict = verdicts.get(key)
    counter = "fullinfo.legality.hit"
    if verdict is None:
        verdict = verdicts[key] = all(
            leaf_ok(leaf) for _, leaf in node.leaves_unique
        )
        counter = "fullinfo.legality.miss"
    observer = _obs.ACTIVE
    if observer is not None:
        observer.count(counter)
    return verdict


class ReceiveGate:
    """Step 2 of Protocol 1 on the array kernel: canonical node or reject.

    Every consumer of Section 5.1 value arrays asks the same question
    once per incoming message: is this a depth-``r - 1`` ``n``-ary
    array over the alphabet ``V`` — and if so, which canonical node of
    the shared :class:`~repro.arrays.store.ArrayStore` is it?
    :meth:`admit` answers in O(new nodes): a message that is already
    canonical (the broadcast common case: its sender interned it last
    round) costs one depth read and one :func:`leaves_satisfy` hit; a
    plain tuple from an adversary pays one depth-bounded intern walk —
    shape validation included — and joins the fast path wherever it is
    replayed.  Hostile input never raises: scalars, ragged or
    wrong-``n`` levels, unhashable leaves and nesting deeper than
    expected are all :data:`REJECT`.

    A gate is a store and a leaf policy, nothing per receiver:
    :class:`FullInformationProcess` holds one,
    :class:`repro.agreement.firing_squad.FiringSquadProcess` shares one
    across its live EIG instances, and
    :class:`repro.compact.protocol.CompactProcess` holds one over ``V``
    for block 1 and an :class:`IndexGate` for the index arrays of later
    blocks.
    """

    def __init__(self, store: ArrayStore, alphabet: Iterable[Value]):
        legal = frozenset(alphabet)
        self._bind(store, ("alphabet", legal), _alphabet_predicate(legal))

    def _bind(
        self,
        store: ArrayStore,
        policy: Tuple[str, Any],
        leaf_ok: Callable[[Any], bool],
    ) -> None:
        self.store = store
        self.policy = policy
        self.leaf_ok = leaf_ok

    def admit(self, message: Any, expected_depth: int) -> Any:
        """The interned legal ``message``, or :data:`REJECT`."""
        if expected_depth == 0:
            # Depth-0 arrays are bare legal scalars.
            if isinstance(message, tuple) or not self.leaf_ok(message):
                return REJECT
            return message
        store = self.store
        if type(message) is InternedArray and message.store is store:
            node = message
        else:
            maybe = store.try_intern(message, expected_depth)
            if maybe is None:
                return REJECT  # scalar, ragged, wrong-n, deep or unhashable
            node = maybe
        if node.depth != expected_depth:
            return REJECT
        if not leaves_satisfy(node, self.policy, self.leaf_ok):
            return REJECT
        return node


class IndexGate(ReceiveGate):
    """A :class:`ReceiveGate` whose legal leaves are the ids ``1..n``.

    For the index arrays of the compact protocol's later blocks.  The
    leaf test is the *predicate*
    :func:`~repro.arrays.value_array.is_index_scalar`, not membership
    in ``{1, ..., n}``: ``True`` and ``2.0`` equal (and hash like) the
    ids ``1`` and ``2`` but are not index scalars.
    """

    def __init__(self, store: ArrayStore):
        n = store.n
        self._bind(
            store, ("indices", n), lambda leaf: is_index_scalar(leaf, n)
        )


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


class FullInformationAutomaton(AutomatonProtocol):
    """Protocol 1 in the Section 3.1 automaton formalism.

    Used by the Theorem 2 tests: the identity scaling function and the
    recursive ``f_p`` of :func:`repro.fullinfo.decision.reconstruct_state`
    witness that this protocol simulates any consensus protocol.
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
        self._rounds_seen: Dict[int, int] = {}

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
