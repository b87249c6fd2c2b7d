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

The avalanche decisions of a round are read at the start of the
local-state-change portion of that round (Section 5.2's availability
rule) into the processor's expansion view, shared by every processor at
the same batch states, so rebasing and validation always see the
freshest ``OUT``.

``FULL_STATE = phi_b(CORE)`` reconstructs the simulated
full-information state (Section 5.5); decision rules are evaluated on
it at progress rounds once the simulated horizon is reached.

The loop itself is :class:`repro.compact.driver.BlockDriver`, shared
with the benign and authenticated variants; this module adds what the
unauthenticated Byzantine model needs: references are processor indices
bound by avalanche agreement (hence the overhead rounds), the side
channel carries the votes, and COREs are canonical nodes admitted
through the gates below.

**What a round costs** is what changed in it (docs/perf.md, "The
compact hot path").  "Correctly shaped" is the verdict of a
:class:`repro.fullinfo.protocol.ReceiveGate` — canonical node or
reject, one leaf scan per distinct node — over ``V`` in block 1 and
over processor indices afterwards; "expandable" asks the expansion
state whether every distinct leaf has an image, which builds nothing.
Each payload's ``votes`` field is read once, when it is built, through
the fail-closed :meth:`repro.compact.payload.CompactPayload.vote_slots`
(a malformed field or slot is simply no votes from that sender), and
routed to the batches, which step once per distinct view and re-tally
only the instances whose votes changed
(:mod:`repro.compact.subprotocol`).  Scalar images and rebase verdicts
are computed once per view, and expansions when ``FULL_STATE`` is
needed, once per store (:mod:`repro.compact.expansion`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.avalanche.fast import fast_thresholds
from repro.avalanche.protocol import Thresholds, standard_thresholds
from repro.arrays.store import shared_store
from repro.compact.driver import BlockDriver
from repro.compact.expansion import ExpansionState
from repro.compact.payload import CompactPayload
from repro.compact.subprotocol import AgreementBatch, shared
from repro.errors import ConfigurationError
from repro.fullinfo.protocol import REJECT, DecisionRule, IndexGate, ReceiveGate
from repro.runtime.node import broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value

# Avalanche batches are never retired: Lemma 7 (each correct
# processor's expansion function extends every correct processor's
# previous-round one) leans on the avalanche condition's one-round
# propagation window staying open, so instances keep stepping until
# the protocol ends.  The Section 4 null-message coding keeps the cost
# of an already-settled instance at zero bits, and the batch's skip
# rule keeps a settled batch-round at O(n) identity checks.


class CompactProcess(BlockDriver):
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
        if overhead not in (1, 2):
            # Equivocation makes the agreement rounds unavoidable here.
            raise ConfigurationError(f"overhead must be 1 or 2, got {overhead}")
        super().__init__(
            process_id, config, input_value, k, overhead, value_alphabet,
            decision_rule, horizon,
        )
        if thresholds is None:
            thresholds = (
                standard_thresholds(config)
                if overhead == 2
                else fast_thresholds(config)
            )
        self._store = shared_store(config.n)
        # The view of the empty history; later views are shared by every
        # processor at the same batch states, and keyed on this one.
        self._origin = self.expansion = ExpansionState.empty(
            config, value_alphabet, self._store
        )
        # Canonical-or-reject admission of CORE messages: value arrays
        # in block 1, index arrays afterwards.
        self._value_gate = ReceiveGate(self._store, frozenset(value_alphabet))
        self._index_gate = IndexGate(self._store)
        self._thresholds = thresholds
        self._expose_full_state = expose_full_state
        # Boundary -> batch, in starting (= boundary) order.
        self._batches: Dict[int, AgreementBatch] = {}
        self._payload = CompactPayload(main=input_value)

    # -- sending ----------------------------------------------------------

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(self._payload, self.config)

    def _prepare_send(self, next_round: Round) -> None:
        schedule = self.schedule
        main: Any = BOTTOM
        rebase = next_round > 1 and schedule.is_block_start(next_round)
        if not rebase and (
            schedule.is_progress_round(next_round)
            or schedule.is_rebroadcast_round(next_round)
        ):
            # Progress exchanges and the phase-(k+1) rebroadcast carry
            # the CORE; rebase rounds (phase 1, block > 1) and the
            # avalanche-only phase k+2 carry no main component.
            main = self.core
        # Processors at the same batch states with the same CORE send
        # one payload object.
        self._payload = shared(
            self._batches.values(),
            main,
            lambda: CompactPayload(main=main, votes=tuple(
                (boundary, batch.outgoing_votes())
                for boundary, batch in self._batches.items()
            )),
        )

    # -- the side channel: avalanche votes -----------------------------------

    def _side_channel(self, incoming: Dict[ProcessId, Any]) -> None:
        if not self._batches:
            return
        # Each payload read its vote slots once, into a map by boundary
        # (a sender's first slot for a boundary is the one that counts).
        components: Dict[int, Dict[ProcessId, Any]] = {
            boundary: {} for boundary in self._batches
        }
        for sender, message in incoming.items():
            if type(message) is CompactPayload:
                votes = message.votes_by_boundary
                for boundary, by_sender in components.items():
                    by_sender[sender] = votes.get(boundary)
        fresh = [
            (boundary, subject, value)  # OUT[b][q]
            for boundary, batch in self._batches.items()
            for subject, value in batch.step(components[boundary])
        ]
        if fresh:  # else OUT, hence the view, is what it was
            view = self.expansion
            self.expansion = shared(
                self._batches.values(), self._origin, lambda: view.extended(fresh)
            )

    # -- main-component state changes ---------------------------------------

    def _admit_cores(
        self,
        incoming: Dict[ProcessId, Any],
        expected_depth: int,
        block: int,
        substitute: Any,
    ) -> List[Any]:
        """Per sender, its usable CORE message or ``substitute``.

        Usable (the paper's steps 5/6 and 11) means correctly shaped
        for the phase — a depth-``expected_depth`` array over ``V`` in
        block 1, over processor indices afterwards, which is the
        gate's verdict — *and* expandable by the current ``phi_b``.
        ``phi_1`` is the identity on arrays over ``V``, so in block 1
        the gate's verdict already is expandability.
        """
        cores = []
        for sender in self.config.process_ids:
            message = incoming.get(sender)
            main = message.main if type(message) is CompactPayload else BOTTOM
            if main is BOTTOM:
                core = REJECT
            elif block == 1:
                core = self._value_gate.admit(main, expected_depth)
            else:
                core = self._index_gate.admit(main, expected_depth)
                if core is not REJECT and not self.expansion.defined(block, core):
                    core = REJECT
            cores.append(substitute if core is REJECT else core)
        return cores

    def _exchange(
        self, depth: int, block: int, incoming: Dict[ProcessId, Any]
    ) -> None:
        # Substitute the receiver's own previous CORE for unusable
        # messages — the right shape and expandable by construction.
        cores = self._admit_cores(incoming, depth, block, self.core)
        self._set_core(self._store.intern(tuple(cores)), block)

    def _stage(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        candidates = self._admit_cores(incoming, self.k, block, BOTTOM)
        self._batches[block + 1] = AgreementBatch(
            self.config,
            boundary=block + 1,
            inputs=dict(zip(self.config.process_ids, candidates)),
            thresholds=self._thresholds,
        )

    def _rebase(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        own = self.process_id
        references = tuple(
            sender if defined else own
            for sender, defined in zip(
                self.config.process_ids, self.expansion.rebase_mask(block)
            )
        )
        self._set_core(self._store.intern(references), block)

    def snapshot(self) -> Any:
        snapshot = super().snapshot()
        if self._expose_full_state and self._last_round:
            if self.schedule.is_progress_round(self._last_round):
                snapshot["full_state"] = self.full_state()
            # The OUT tables define this round's expansion functions;
            # recording them lets checkers test Lemma 7's extension
            # property directly across processors and rounds.
            tables = self.expansion.out_tables()
            snapshot["out"] = {
                boundary: tables[boundary]
                for boundary in range(2, self.core_boundary + 2)
                if boundary in tables
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
