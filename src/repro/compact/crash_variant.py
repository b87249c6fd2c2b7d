"""The benign-fault compact protocol: no round overhead (Section 1).

The paper claims that "in more benign fault models like
failure-by-omission and fail-stop there is a simple extension of our
transformation that causes no increase in the number of rounds", with
no construction given.  This module is our reconstruction, validated
by experiment E8.

**Why benign faults make the overhead rounds unnecessary.**  The two
overhead rounds of Protocol 3 exist to let avalanche agreement build a
*consistent* expansion function despite equivocation.  A crash- or
omission-faulty processor never lies: every copy of its end-of-block
CORE in the system is identical, so "agreement" on expansions is free
— each processor simply *remembers* the end-of-block COREs it
receives, and blocks shrink to exactly ``k`` progress rounds
(``simul(r) = r``: literally no round increase).

**The gap that remains, and the patch rule that closes it.**  A
processor that crashes mid-broadcast reaches only some receivers, so
receiver ``p`` may lack a binding (an end-of-block CORE) that receiver
``u`` holds and references.  The fix: every processor attaches to each
round's message a *patch* — the full values of all bindings it learned
in the previous round.  An induction then shows every reference in a
received message is expandable: a sender alive in round ``s`` either
learned the binding in round ``s - 1`` (its patch rides along in this
very message) or learned it earlier — in which case the sender
completed its own patch broadcast in a round it did not crash in, so
every correct processor already holds the binding.  Patches keep
messages polynomial (``O(n^(k+1) log |V|)`` in the worst round), and
the round count is exactly that of the simulated protocol.

A missing transmission is recorded as the :data:`CRASHED` marker —
the honest "no message" of the crash-model full-information protocol —
rather than substituted, so the reconstructed ``FULL_STATE`` is a
genuine crash-model full-information state and the classic flooding
decision rule (:func:`flooding_decision_rule`) applies: after ``t + 1``
rounds all correct processors hold the same leaf-value set and decide
its canonical minimum.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arrays.encoding import MessageSizer
from repro.arrays.value_array import is_index_scalar, unique_leaves
from repro.compact.driver import BlockDriver
from repro.compact.expansion import BindingExpansion
from repro.errors import ProtocolViolation
from repro.fullinfo.gate import DecisionRule
from repro.runtime.node import broadcast
from repro.types import (
    BOTTOM,
    ProcessId,
    Round,
    Sentinel,
    SystemConfig,
    Value,
    is_bottom,
)


class _Crashed(Sentinel):
    """Marker leaf: "this transmission never arrived" (fail-stop gap)."""

    NAME, TAG = "CRASHED", "crashed"


CRASHED = _Crashed()

BindingKey = Tuple[int, ProcessId]  # (boundary, sender)


@dataclasses.dataclass(frozen=True)
class CrashPayload:
    """One round's message: the CORE plus freshly learned bindings."""

    main: Any
    patches: Tuple[Tuple[BindingKey, Any], ...] = ()

    def patch_entries(self, n: int) -> Tuple[Tuple[BindingKey, Any], ...]:
        """The well-formed ``((boundary, sender), value)`` patches.

        The one fail-closed reading of a field a faulty sender
        controls, for receiver and sizer alike: ``patches`` that is not
        a tuple, or an entry not keyed by a ``(boundary, sender id)``
        pair, is no patch — 0 bits, never an exception.  Whether the
        value is a usable binding is the receiver's test.
        """
        patches = self.patches
        if not isinstance(patches, tuple):
            return ()
        return tuple(
            entry
            for entry in patches
            if isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], tuple)
            and len(entry[0]) == 2
            and isinstance(entry[0][0], int)
            and not isinstance(entry[0][0], bool)
            and is_index_scalar(entry[0][1], n)
        )


def _payload(message: Any) -> CrashPayload:
    """``message`` as a payload; anything else is a silent sender's."""
    return message if isinstance(message, CrashPayload) else CrashPayload(BOTTOM)


class CrashExpansion(BindingExpansion):
    """Expansion functions for the benign variant: a binding store.

    ``phi_1`` is the identity on values, ``phi_b(q) =
    phi_{b-1}(binding[(b, q)])`` as in the Byzantine construction,
    except that the bindings come from remembered broadcasts and
    patches instead of avalanche agreement — and :data:`CRASHED`
    expands to itself under every ``phi_b``.
    """

    def expand_scalar(self, boundary: int, scalar: Any) -> Any:
        if scalar is CRASHED:
            return CRASHED
        return super().expand_scalar(boundary, scalar)


class CrashCompactProcess(BlockDriver):
    """One processor of the benign-fault compact protocol.

    On the shared block driver with no overhead rounds: a reference is
    a processor index bound by remembering that processor's phase-1
    broadcast (or a patch of it), an unusable message is recorded as
    :data:`CRASHED`, and the side channel carries patches.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        k: int,
        value_alphabet: Sequence[Value],
        decision_rule: Optional[DecisionRule] = None,
        horizon: Optional[int] = None,
    ):
        super().__init__(
            process_id, config, input_value, k, 0, value_alphabet,
            decision_rule, horizon,
        )
        self.expansion = CrashExpansion(config, value_alphabet)
        # Bindings learned in the latest receive: the next patches.
        self._fresh: List[Tuple[BindingKey, Any]] = []

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(
            CrashPayload(main=self.core, patches=tuple(self._fresh)), self.config
        )

    # -- the side channel: patches ---------------------------------------------

    def _side_channel(self, incoming: Dict[ProcessId, Any]) -> None:
        self._fresh = []
        # Patches can depend on one another within a round (a binding
        # for boundary b references boundary b-1 bindings a peer may
        # only have learned last round too); absorbing in ascending
        # boundary order resolves every such chain in one pass.
        entries = [
            entry
            for sender in self.config.process_ids
            for entry in _payload(incoming.get(sender)).patch_entries(self.config.n)
        ]
        entries.sort(key=lambda entry: entry[0][0])
        for key, value in entries:
            self._bind(key, value)

    def _bind(self, key: BindingKey, value: Any) -> bool:
        """Remember ``value`` as the end-of-block CORE ``key`` names, if
        it can be one: depth ``k``, shaped for the boundary's previous
        block and expandable there.  True when the key is bound after
        the call; a binding that is new is also the next round's patch.
        """
        boundary = key[0]
        if boundary < 2 or not self._usable(value, self.k, boundary - 1):
            return False
        if self.expansion.learn(key, value):
            self._fresh.append((key, value))
        return True

    # -- main-component state changes ---------------------------------------------

    def _rebase(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        # The phase-1 message from each live sender is its end-of-
        # previous-block CORE: simultaneously this round's simulated
        # exchange and the binding table for boundary ``block``.
        self._set_core(
            tuple(
                sender
                if self._bind((block, sender), self._main_of(incoming.get(sender)))
                else CRASHED
                for sender in self.config.process_ids
            ),
            block,
        )

    def _main_of(self, message: Any) -> Any:
        return _payload(message).main

    def _stand_in(self) -> Any:
        # A missing transmission is recorded, not substituted: the
        # crash model's full-information "no message".
        return CRASHED

    def _shape_ok(self, array: Any, depth: int, block: int) -> bool:
        # CRASHED is a subtree of any depth: a missing transmission
        # leaves a hole where a whole sub-array would be, so crash-model
        # arrays are not uniform-depth.
        return array is CRASHED or super()._shape_ok(array, depth, block)


def flooding_decision_rule(t: int) -> Callable[[Any, int, ProcessId], Value]:
    """Crash-model consensus: decide the canonical minimum value seen.

    After ``t + 1`` rounds of crash-model full information, every
    correct processor's leaf-value set is identical (the classic
    flooding argument: some round among the ``t + 1`` is crash-free
    and equalises the sets).  All processors then decide the same
    element; we pick the minimum under ``repr`` ordering, which is
    total for any hashable alphabet.
    """

    def rule(state: Any, simulated_round: int, process_id: ProcessId) -> Value:
        if simulated_round < t + 1:
            return BOTTOM
        values = {
            leaf for _, leaf in unique_leaves(state) if leaf is not CRASHED
        }
        if not values:
            raise ProtocolViolation(
                "no values survived flooding — more crashes than processors?"
            )
        return sorted(values, key=repr)[0]

    return rule


def crash_compact_factory(
    k: int,
    value_alphabet: Sequence[Value],
    t: int,
):
    """A run_protocol factory for benign-model compact consensus."""
    rule = flooding_decision_rule(t)

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> CrashCompactProcess:
        return CrashCompactProcess(
            process_id,
            config,
            input_value,
            k=k,
            value_alphabet=value_alphabet,
            decision_rule=rule,
            horizon=t + 1,
        )

    return factory


def crash_sizer(
    config: SystemConfig, value_alphabet_size: int
) -> Callable[[Any], int]:
    """Exact bit measure for benign-variant payloads."""
    sizer = MessageSizer(value_alphabet_size, config.n)

    def measure(payload: Any) -> int:
        if not isinstance(payload, CrashPayload):
            return 0 if is_bottom(payload) else sizer.measure(payload)
        total = 0 if is_bottom(payload.main) else sizer.measure(payload.main)
        for key, value in payload.patch_entries(config.n):
            total += sizer.measure(key) + sizer.measure(value)
        return total

    return measure
