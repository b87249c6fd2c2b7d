"""The block driver: one round loop for every fault model (Section 5).

The paper states one canonical form and says the benign models need
only "a simple extension of our transformation" (Section 1).  A fault
model changes how a block-boundary reference gets its meaning — an
avalanche-agreed ``OUT`` entry, a remembered broadcast plus patches, a
signed certificate — and nothing else, so the loop is written once,
here; the three processes (docs/protocols.md tabulates them) supply
only that difference.  A round's local state change, in order:

1. the **side channel** — votes, patches or certificates — first, so
   everything after it sees the freshest bindings (Section 5.2);
2. the **main component**, by the round's place in its block
   (:class:`repro.core.rounds.BlockSchedule`): phase 1 of a block
   ``b > 1`` *rebases* ``CORE`` to references to the senders'
   end-of-previous-block COREs; any other progress phase *exchanges* —
   rebuilds ``CORE`` from the received ones, each validated or stood
   in for; with overhead rounds, phase ``k + 1`` *stages* the
   re-broadcast COREs as agreement inputs and phase ``k + 2`` carries
   agreement traffic only;
3. the **decision** rule's verdict on the simulated state
   ``FULL_STATE = phi_b(CORE)`` (Section 5.5), at progress rounds past
   the horizon;
4. the next round's **send-side preparation**, so that ``outgoing``
   only reads: ``mu_pq`` is a function of the end-of-round state.

Wherever ``CORE`` changes, the invariant the construction rests on (the
paper's step 5) is enforced: ``phi_b(CORE)`` is defined at its owner.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Sequence

from repro.compact.expansion import BindingExpansion
from repro.core.rounds import BlockSchedule
from repro.errors import ConfigurationError, ProtocolViolation
from repro.fullinfo.gate import DecisionRule
from repro.runtime.node import Process
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom


class BlockDriver(Process):
    """One processor's block loop; subclasses supply the binding rule."""

    #: The fault model's binding table; each variant constructs its own.
    expansion: BindingExpansion

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        k: int,
        overhead: int,
        value_alphabet: Sequence[Value],
        decision_rule: Optional[DecisionRule],
        horizon: Optional[int],
    ):
        super().__init__(process_id, config)
        alphabet = frozenset(value_alphabet)
        if input_value not in alphabet:
            raise ConfigurationError(
                f"input {input_value!r} outside V={sorted(map(repr, alphabet))}"
            )
        self.schedule = BlockSchedule(k, overhead)
        self.k = k
        self._decision_rule = decision_rule
        self._horizon = horizon
        self.core: Any = input_value  # depth-0 value array
        self.core_boundary: int = 1  # the phi_b that expands self.core
        self._last_round: Round = 0

    # -- the round ----------------------------------------------------------

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        schedule = self.schedule
        block = schedule.block(round_number)
        self._side_channel(incoming)
        if block > 1 and schedule.is_block_start(round_number):
            self._rebase(block, incoming)
        elif schedule.is_progress_round(round_number):
            self._exchange(schedule.phase(round_number) - 1, block, incoming)
        elif schedule.is_rebroadcast_round(round_number):
            self._stage(block, incoming)
        self._last_round = round_number
        self._maybe_decide(round_number)
        self._prepare_send(round_number + 1)

    @abc.abstractmethod
    def _side_channel(self, incoming: Dict[ProcessId, Any]) -> None:
        """Absorb what rides beside the CORE: new bindings, or votes."""

    @abc.abstractmethod
    def _rebase(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        """Phase 1 of ``block > 1``: CORE becomes an array of references."""

    def _exchange(
        self, depth: int, block: int, incoming: Dict[ProcessId, Any]
    ) -> None:
        """A progress phase: CORE becomes the array of the received
        depth-``depth`` COREs, each usable one kept, the fault model's
        stand-in replacing the rest.

        This default validates plain nested tuples level by level;
        Protocol 3 overrides it with the canonical-node gates.
        """
        components = []
        for sender in self.config.process_ids:
            main = self._main_of(incoming.get(sender))
            if not self._usable(main, depth, block):
                main = self._stand_in()
            components.append(main)
        self._set_core(tuple(components), block)

    def _main_of(self, message: Any) -> Any:
        """The CORE component of a wire message; bottom if it has none."""
        raise NotImplementedError

    def _stand_in(self) -> Any:
        """What replaces an unusable message: the receiver's own CORE,
        the right shape and expandable by construction — a value array
        the faulty sender could have sent (Theorem 9, Case 3)."""
        return self.core

    def _usable(self, array: Any, depth: int, block: int) -> bool:
        """The paper's steps 5/6 and 11 on a plain array: correctly
        shaped for the phase *and* expandable by the current ``phi_b``.
        The shape test is depth-bounded and runs first, so nothing
        walks, hashes or compares a received array that fails it."""
        return self._shape_ok(array, depth, block) and self.expansion.defined(
            block, array
        )

    def _shape_ok(self, array: Any, depth: int, block: int) -> bool:
        """Exactly ``depth`` levels of width ``n`` over the block's
        leaves: values in block 1, references afterwards."""
        if depth == 0:
            return self.expansion.is_leaf(block, array)
        return (
            isinstance(array, tuple)
            and len(array) == self.config.n
            # A reference that is itself a tuple is no array level.
            and not self.expansion.is_reference(array)
            and all(
                self._shape_ok(component, depth - 1, block)
                for component in array
            )
        )

    def _stage(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        """Phase ``k + 1`` (schedules with overhead only): stage the
        re-broadcast end-of-block COREs as agreement inputs."""
        raise NotImplementedError

    def _prepare_send(self, next_round: Round) -> None:
        """Ready whatever ``outgoing(next_round)`` sends beside the CORE."""

    def _set_core(self, core: Any, block: int) -> None:
        self.core = core
        self.core_boundary = block
        # The paper's step-5 invariant.  A failure here is a library
        # bug, never an adversary achievement.
        if not self.expansion.defined(block, core):
            raise ProtocolViolation(
                f"processor {self.process_id}: CORE became non-expandable "
                f"at boundary {block}"
            )

    # -- simulated state and decisions ---------------------------------------

    def full_state(self) -> Any:
        """``FULL_STATE = phi_b(CORE)`` — the simulated state.

        Exponential in the simulated round; call at decision time or
        from checkers only.
        """
        expanded = self.expansion.expand(self.core_boundary, self.core)
        if is_bottom(expanded):
            raise ProtocolViolation(
                f"processor {self.process_id}: FULL_STATE undefined"
            )
        return expanded

    def _maybe_decide(self, round_number: Round) -> None:
        if (
            self._decision_rule is None
            or self.has_decided()
            or not self.schedule.is_progress_round(round_number)
        ):
            return
        simulated = self.schedule.simul(round_number)
        if self._horizon is not None and simulated < self._horizon:
            return
        value = self._decision_rule(self.full_state(), simulated, self.process_id)
        if value is not BOTTOM:
            self.decide(value, round_number)

    def snapshot(self) -> Any:
        return {
            "core": self.core,
            "core_boundary": self.core_boundary,
            "simul": (
                self.schedule.simul(self._last_round) if self._last_round else 0
            ),
            "decision": self.decision,
        }
