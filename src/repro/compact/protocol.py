"""Protocol 3: the compact full-information protocol (Section 5.3).

The paper's listing of Protocol 3 is not present in the source text we
work from (only steps 5, 6 and 11 are referenced by the lemmas); the
implementation below is reconstructed from Lemmas 6-8 and the proof of
Theorem 9, whose obligations are enforced here as runtime invariants
and covered by tests.  The reconstruction, round by round (blocks of
``k + overhead`` rounds, phases numbered from 1):

* **round 1** — broadcast the input value; build ``CORE`` as the
  n-vector of received values, substituting the processor's *own*
  previous CORE for any message that is malformed or not expandable
  (the substitution Theorem 9's Case 3 legitimises: the expansion of
  the substitute is a value array the faulty sender could have sent);
* **phases 2..k** (progress) — broadcast ``CORE``; rebuild it from the
  received messages with the same validate-or-substitute rule, where
  "valid" means correctly shaped for the phase *and* expandable by the
  current expansion function ``phi_b`` (the paper's step 5/6);
* **phase 1 of block b > 1** (progress) — no main broadcast: rebase
  ``CORE`` to the index array ``(c_1, ..., c_n)`` with ``c_q = q``
  when the avalanche agreement on ``q``'s end-of-previous-block CORE
  has decided and expanded (Theorem 9's Case 1), else ``c_q`` = the
  processor's own index (Case 3 again);
* **phase k + 1** (overhead) — re-broadcast the end-of-block ``CORE``;
  validate each received copy by expandability (the paper's step 11)
  and stage it as the avalanche input for that sender, bottom if
  unusable;
* **phase k + 2** (overhead; with the fast variant this round is
  folded into the next block's phase 1) — the block's batch of ``n``
  avalanche agreements takes its first step, voting on the staged
  inputs; by the consensus condition every correct sender's CORE is
  agreed in time for the next rebase (Lemma 8).

Every avalanche decision lands in the processor's
:class:`repro.compact.expansion.ExpansionState` at the start of the
local-state-change portion of its round (Section 5.2's availability
rule), so rebasing and validation always see the freshest ``OUT``.

``FULL_STATE = phi_b(CORE)`` reconstructs the simulated
full-information state (Section 5.5); decision rules are evaluated on
it at progress rounds once the simulated horizon is reached.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.avalanche.fast import fast_thresholds
from repro.avalanche.protocol import Thresholds, standard_thresholds
from repro.arrays.store import shared_store
from repro.arrays.value_array import is_index_scalar, validate_array
from repro.compact.expansion import ExpansionState
from repro.compact.payload import CompactPayload
from repro.compact.subprotocol import AgreementBatch
from repro.core.rounds import BlockSchedule
from repro.errors import ConfigurationError, ProtocolViolation
from repro.runtime.node import Process, broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value, is_bottom

# (full_state, simulated_round, process_id) -> value or BOTTOM.
DecisionRule = Callable[[Any, int, ProcessId], Value]

# Avalanche batches are never retired: Lemma 7 (each correct
# processor's expansion function extends every correct processor's
# previous-round one) leans on the avalanche condition's one-round
# propagation window staying open, so instances keep stepping until
# the protocol ends.  The Section 4 null-message coding keeps the cost
# of an already-settled instance at zero bits.


#: Protoflow message-size bound (COM rule family): the whole point of
#: the construction (Theorem 5) — CORE depth is capped by the block
#: length, so per-round payloads stay polynomial while the *simulated*
#: state is the full-information history.
MESSAGE_BOUNDS = {
    "CompactProcess": (
        "linear",
        "CORE depth is capped at k + overhead within a block and "
        "rebased to references at block boundaries (O(n^k) for "
        "constant k); avalanche votes are scalars",
    ),
}


class CompactProcess(Process):
    """One processor of the compact full-information protocol."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        k: int,
        value_alphabet: Sequence[Value],
        decision_rule: Optional[DecisionRule] = None,
        horizon: Optional[int] = None,
        overhead: int = 2,
        thresholds: Optional[Thresholds] = None,
        expose_full_state: bool = False,
    ):
        """
        COREs are hash-consed through the shared store, so honest
        messages validate and expand through O(1) canonical-node fast
        paths.

        Parameters
        ----------
        k:
            Progress rounds per block — the time/communication
            tradeoff parameter (message size grows as ``n ** k``).
        value_alphabet:
            The simulated protocol's input set ``V``.
        decision_rule:
            Evaluated on ``FULL_STATE`` at progress rounds with
            simulated round >= ``horizon``; first non-bottom result is
            decided.
        overhead:
            2 for the standard construction (needs ``n >= 3t + 1``);
            1 for the Section 5.6 fast variant (needs ``n >= 4t + 1``).
        thresholds:
            Avalanche quorums; defaults to the standard or fast
            thresholds matching ``overhead``.
        expose_full_state:
            Include the (exponential) expanded state in snapshots, for
            the simulation checker.  Test scale only.
        """
        super().__init__(process_id, config)
        alphabet = frozenset(value_alphabet)
        if input_value not in alphabet:
            raise ConfigurationError(
                f"input {input_value!r} outside V={sorted(map(repr, alphabet))}"
            )
        if thresholds is None:
            thresholds = (
                standard_thresholds(config)
                if overhead == 2
                else fast_thresholds(config)
            )
        self.schedule = BlockSchedule(k, overhead)
        self.k = k
        self._store = shared_store(config.n)
        self.expansion = ExpansionState(config, value_alphabet, store=self._store)
        self._alphabet = alphabet
        self._thresholds = thresholds
        self._decision_rule = decision_rule
        self._horizon = horizon
        self._expose_full_state = expose_full_state

        self.core: Any = input_value  # depth-0 value array
        self.core_boundary: int = 1  # the phi_b that expands self.core
        self._batches: Dict[int, AgreementBatch] = {}
        self._candidates: Dict[ProcessId, Any] = {}
        self._last_round: Round = 0

    # -- sending ----------------------------------------------------------

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        phase = self.schedule.phase(round_number)
        main: Any = BOTTOM
        if round_number == 1 or 2 <= phase <= self.k + 1:
            # Progress exchanges and the phase-(k+1) rebroadcast carry
            # the CORE; rebase rounds (phase 1, block > 1) and the
            # avalanche-only phase k+2 carry no main component.
            main = self.core
        votes = tuple(
            (boundary, self._batches[boundary].outgoing_votes())
            for boundary in sorted(self._batches)
        )
        return broadcast(CompactPayload(main=main, votes=votes), self.config)

    # -- receiving ---------------------------------------------------------

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        phase = self.schedule.phase(round_number)
        block = self.schedule.block(round_number)
        payloads = {
            sender: message
            if isinstance(message, CompactPayload)
            else CompactPayload(main=BOTTOM)
            for sender, message in incoming.items()
        }

        # Subprotocol state changes run before the main protocol's
        # (Section 5.2), so rebasing and validation see fresh OUTs.
        self._step_batches(round_number, payloads)

        if phase == 1 and round_number > 1:
            self._rebase_core(block)
        elif round_number == 1 or 2 <= phase <= self.k:
            self._exchange_core(phase, block, payloads)
        elif phase == self.k + 1:
            self._collect_candidates(block, payloads)
            self._start_batch(block + 1, round_number)
        # Phase k + 2 (standard overhead) has avalanche traffic only.

        self._last_round = round_number
        self._maybe_decide(round_number)

    # -- avalanche plumbing ---------------------------------------------------

    def _step_batches(
        self, round_number: Round, payloads: Dict[ProcessId, CompactPayload]
    ) -> None:
        for boundary in sorted(self._batches):
            batch = self._batches[boundary]
            votes_by_sender = {
                sender: payload.votes_for(boundary)
                for sender, payload in payloads.items()
            }
            for subject, value in batch.step(votes_by_sender):
                self.expansion.set_out(boundary, subject, value)

    def _start_batch(self, boundary: int, round_number: Round) -> None:
        self._batches[boundary] = AgreementBatch(
            self.config,
            boundary=boundary,
            inputs=dict(self._candidates),
            thresholds=self._thresholds,
        )
        self._candidates = {}

    # -- main-component state changes ---------------------------------------

    def _exchange_core(
        self, phase: int, block: int, payloads: Dict[ProcessId, CompactPayload]
    ) -> None:
        expected_depth = phase - 1
        components = []
        for sender in self.config.process_ids:
            message = payloads.get(
                sender, CompactPayload(main=BOTTOM)
            ).main
            if self._valid_core_message(message, expected_depth, block):
                components.append(message)
            else:
                # Substitute the receiver's own previous CORE — the
                # right shape and expandable by construction.
                components.append(self.core)
        self._set_core(tuple(components), block)

    def _rebase_core(self, block: int) -> None:
        components = []
        for sender in self.config.process_ids:
            if self.expansion.has_out(block, sender) and not is_bottom(
                self.expansion.expand_scalar(block, sender)
            ):
                components.append(sender)
            else:
                components.append(self.process_id)
        self._set_core(tuple(components), block)

    def _set_core(self, core: Any, block: int) -> None:
        self.core = self._store.intern(core)
        self.core_boundary = block
        self._assert_core_expandable()

    def _collect_candidates(
        self, block: int, payloads: Dict[ProcessId, CompactPayload]
    ) -> None:
        self._candidates = {}
        for sender in self.config.process_ids:
            message = payloads.get(sender, CompactPayload(main=BOTTOM)).main
            if self._valid_core_message(message, self.k, block):
                self._candidates[sender] = message
            else:
                self._candidates[sender] = BOTTOM

    def _valid_core_message(
        self, message: Any, expected_depth: int, block: int
    ) -> bool:
        if is_bottom(message):
            return False
        if block == 1:
            leaf_ok = lambda leaf: self._leaf_in_alphabet(leaf)  # noqa: E731
        else:
            leaf_ok = lambda leaf: is_index_scalar(leaf, self.config.n)  # noqa: E731
        if not validate_array(
            message, self.config.n, depth=expected_depth, leaf_ok=leaf_ok
        ):
            return False
        return self.expansion.defined(block, message)

    def _leaf_in_alphabet(self, leaf: Any) -> bool:
        try:
            return leaf in self._alphabet
        except TypeError:
            return False

    def _assert_core_expandable(self) -> None:
        # The paper's step-5 invariant: phi_b(CORE) is always defined
        # at its owner.  A failure here is a library bug, never an
        # adversary achievement.
        if not self.expansion.defined(self.core_boundary, self.core):
            raise ProtocolViolation(
                f"processor {self.process_id}: CORE became non-expandable "
                f"at boundary {self.core_boundary}"
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
        if self._decision_rule is None or self.has_decided():
            return
        if not self.schedule.is_progress_round(round_number):
            return
        simulated = self.schedule.simul(round_number)
        if self._horizon is not None and simulated < self._horizon:
            return
        value = self._decision_rule(self.full_state(), simulated, self.process_id)
        if value is not BOTTOM:
            self.decide(value, round_number)

    def snapshot(self) -> Any:
        snapshot = {
            "core": self.core,
            "core_boundary": self.core_boundary,
            "simul": (
                self.schedule.simul(self._last_round) if self._last_round else 0
            ),
            "decision": self.decision,
        }
        if self._expose_full_state and self._last_round:
            if self.schedule.is_progress_round(self._last_round):
                snapshot["full_state"] = self.full_state()
            # The OUT tables define this round's expansion functions;
            # recording them lets checkers test Lemma 7's extension
            # property directly across processors and rounds.
            snapshot["out"] = {
                boundary: self.expansion.out_table(boundary)
                for boundary in range(2, self.core_boundary + 2)
                if self.expansion.out_table(boundary)
            }
        return snapshot


def compact_factory(
    k: int,
    value_alphabet: Sequence[Value],
    decision_rule: Optional[DecisionRule] = None,
    horizon: Optional[int] = None,
    overhead: int = 2,
    thresholds: Optional[Thresholds] = None,
    expose_full_state: bool = False,
):
    """A run_protocol factory for Protocol 3."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> CompactProcess:
        return CompactProcess(
            process_id,
            config,
            input_value,
            k=k,
            value_alphabet=value_alphabet,
            decision_rule=decision_rule,
            horizon=horizon,
            overhead=overhead,
            thresholds=thresholds,
            expose_full_state=expose_full_state,
        )

    return factory
