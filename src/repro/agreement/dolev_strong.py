"""Dolev–Strong authenticated agreement (the [18] context).

The protocol Srikanth–Toueg's simulation is usually applied to: with
unforgeable signatures, Byzantine broadcast takes ``t + 1`` rounds for
*any* ``n > t + 1`` — no ``3t + 1`` bound — with polynomial
communication.  Reference [18]'s theorem ("simulating authenticated
broadcasts") removes the signatures at a cost of one extra round per
phase; comparing this module against
:mod:`repro.agreement.srikanth_toueg` exhibits exactly that 2x round
relationship.  The catalog registers it at ``n >= 2t + 1``: the
protocol itself needs only ``n > t + 1``, but the shared conformance
sweep counts decisions of correct processors against quorums of
faulty ones, and a majority of correct processors keeps its generic
adversary gallery meaningful.

**The broadcast protocol** (source ``s``, value set ``V``):

* round 1 — ``s`` sends ``(v, [sig_s(v)])`` to everyone;
* round ``r`` — a processor holding a *valid chain* for ``v`` of ``r``
  signatures from ``r`` distinct processors starting with ``s`` (and
  not having relayed ``v`` before) adds ``v`` to its extracted set,
  appends its own signature and relays; each processor relays at most
  two distinct values (two are already proof the source is faulty);
* after round ``t + 1`` — decide the single extracted value, or the
  default if zero or several were extracted.

Agreement: if a correct processor extracts ``v`` at round ``r <= t``,
its relay hands everyone a valid ``r + 1``-chain; at round ``t + 1``,
a valid chain of ``t + 1`` signatures contains a correct signer whose
own earlier relay already informed everyone.  Validity: a correct
source signs only its input, and no chain for another value can exist
(unforgeability).

**Consensus** wrapper: everyone broadcasts as source in parallel;
decide the majority of the agreed vector (deterministic tie-break).
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.arrays.value_array import is_index_scalar
from repro.errors import ConfigurationError
from repro.runtime.crypto import SignatureOracle
from repro.runtime.node import Process, broadcast
from repro.types import ProcessId, Round, SystemConfig, Value

# A relayed claim: ("claim", source, value, (sig_1, ..., sig_r)).
# Signature i is by the chain's i-th signer over ("ds", source, value).


def dolev_strong_rounds(t: int) -> int:
    """``t + 1`` rounds, the authenticated-model optimum."""
    return t + 1


def _signed_payload(source: ProcessId, value: Value) -> Tuple:
    return ("ds", source, value)


class DolevStrongProcess(Process):
    """Authenticated consensus: n parallel Dolev–Strong broadcasts."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        oracle: SignatureOracle,
        default: Value = 0,
    ):
        super().__init__(process_id, config)
        # The broadcast primitive needs only n >= t + 2; the majority
        # step of the consensus wrapper needs a correct majority.
        if config.n < 2 * config.t + 1:
            raise ConfigurationError(
                f"Dolev-Strong consensus needs n >= 2t + 1; got "
                f"n={config.n}, t={config.t}"
            )
        self.oracle = oracle
        self.default = default
        self.input_value = input_value
        # (source, value) -> extracted?
        self._extracted: Set[Tuple[ProcessId, Value]] = set()
        # sources for which we've relayed 2 values already
        self._relays_per_source: Dict[ProcessId, int] = {}
        self._outbox: List[Any] = []
        # Own broadcast, queued for round 1.
        signature = oracle.sign(
            process_id, _signed_payload(process_id, input_value)
        )
        self._outbox.append(
            ("claim", process_id, input_value, (signature,))
        )
        self._extracted.add((process_id, input_value))
        self._relays_per_source[process_id] = 1

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        items, self._outbox = self._outbox, []
        # Nothing to relay: send nothing (receivers see BOTTOM).
        return broadcast(tuple(items), self.config) if items else {}

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        for sender in self.config.process_ids:
            payload = incoming[sender]
            if not isinstance(payload, tuple):
                continue
            for item in payload:
                self._consider(item, round_number)
        if round_number == dolev_strong_rounds(self.config.t):
            self.decide(
                resolve_extracted(self._extracted, self.config, self.default),
                round_number,
            )

    # -- chain validation -----------------------------------------------------

    def _consider(self, item: Any, round_number: Round) -> None:
        if not (
            isinstance(item, tuple)
            and len(item) == 4
            and item[0] == "claim"
        ):
            return
        _, source, value, chain = item
        if (source, value) in self._extracted:
            return
        if not self._valid_chain(source, value, chain, round_number):
            return
        self._extracted.add((source, value))
        relays = self._relays_per_source.get(source, 0)
        if relays < 2 and round_number + 1 <= dolev_strong_rounds(self.config.t):
            self._relays_per_source[source] = relays + 1
            extended = tuple(chain) + (
                self.oracle.sign(
                    self.process_id, _signed_payload(source, value)
                ),
            )
            self._outbox.append(("claim", source, value, extended))

    def _valid_chain(
        self, source: Any, value: Any, chain: Any, round_number: Round
    ) -> bool:
        if not is_index_scalar(source, self.config.n):
            return False
        if not isinstance(chain, tuple) or len(chain) != round_number:
            return False
        payload = _signed_payload(source, value)
        signers = []
        for signature in chain:
            signer = getattr(signature, "signer", None)
            if signer is None or not self.oracle.verify(
                signature, signer, payload
            ):
                return False
            signers.append(signer)
        if signers[0] != source:
            return False
        if len(set(signers)) != len(signers):
            return False
        if self.process_id in signers:
            return False  # we never signed this; a replay of our sig
        return True

    def snapshot(self) -> Any:
        return {
            "extracted": sorted(self._extracted, key=repr),
            "decision": self.decision,
        }


def resolve_extracted(
    extracted: Set[Tuple[ProcessId, Value]], config: SystemConfig, default: Value
) -> Value:
    """The decision from the extracted ``(source, value)`` pairs: a
    source with exactly one value contributes it, any other the default,
    and the plurality of that vector wins (ties by ``repr``).  Shared
    with :mod:`repro.agreement.srikanth_toueg`, which extracts otherwise
    and resolves alike."""
    per_source: Dict[ProcessId, List[Value]] = {}
    for source, value in sorted(extracted, key=repr):
        per_source.setdefault(source, []).append(value)
    tally: Dict[Value, int] = {}
    for source in config.process_ids:
        values = per_source.get(source, [])
        value = values[0] if len(values) == 1 else default
        tally[value] = tally.get(value, 0) + 1
    return min(tally, key=lambda value: (-tally[value], repr(value)))


def dolev_strong_factory(oracle: SignatureOracle, default: Value = 0):
    """A run_protocol factory; all processes share one oracle."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> DolevStrongProcess:
        return DolevStrongProcess(
            process_id, config, input_value, oracle=oracle, default=default
        )

    return factory
