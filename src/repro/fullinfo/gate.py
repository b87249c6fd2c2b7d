"""The receive gate every value-array consumer shares.

Step 2 of Protocol 1 asks of each incoming message: is it a
depth-``r - 1`` ``n``-ary value array over the alphabet ``V``, and if
so, which canonical node of the shared
:class:`~repro.arrays.store.ArrayStore` is it?  :class:`ReceiveGate`
answers (:data:`REJECT` otherwise), :class:`IndexGate` asks the same of
the compact protocol's index arrays, and :func:`leaves_satisfy` keeps
each node's verdict in its store.  :data:`DecisionRule` is the type of
the rules that read the admitted states.  The compact protocol runs
all of it without Protocol 1's processor or automaton form.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Tuple

import repro.obs.core as _obs
from repro.arrays.store import ArrayStore, InternedArray
from repro.arrays.value_array import is_index_scalar
from repro.types import ProcessId, Value

#: Returned for a rejected message.  A sentinel rather than ``None``
#: because ``None`` is a perfectly good alphabet value.
REJECT = object()

# A decision rule examines (state, simulated_round, process_id) and
# returns a value or BOTTOM.
DecisionRule = Callable[[Any, int, ProcessId], Value]


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
    :class:`repro.fullinfo.protocol.FullInformationProcess` holds one,
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
