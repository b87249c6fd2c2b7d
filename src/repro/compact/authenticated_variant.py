"""The authenticated-Byzantine compact protocol: no overhead rounds.

The paper's introduction lists "authenticated Byzantine" among the
fault models its framework covers, and develops the transformation for
the harder non-cryptographic model.  This module is the repository's
extension filling in that cell of the matrix: with unforgeable
signatures (:mod:`repro.runtime.crypto`), the compact simulation runs
in blocks of exactly ``k`` rounds — the benign variant's zero round
overhead — while tolerating full Byzantine behaviour.

**Why avalanche agreement becomes unnecessary.**  Protocol 3's two
overhead rounds buy one thing: a *consistent interpretation* of the
compressed reference "processor q's end-of-block CORE" despite
equivocation.  Signatures solve the same problem structurally:

* an end-of-block CORE travels *signed by its owner*; a reference to
  it is the triple ``("ref", q, digest)`` — **content-addressed**, so
  two equivocated versions are two different references, never one
  ambiguous one;
* the signature prevents the one remaining forgery: attributing a
  fabricated CORE to a *correct* processor (which would corrupt the
  simulated execution, since correct processors' messages must be
  exact);
* a faulty owner may sign many versions — harmless: different
  receivers incorporate different digests, which the simulation
  semantics already permit (a faulty processor may send different
  messages to different receivers).

**Propagation** borrows the benign variant's patch rule, hardened:
every processor re-broadcasts, exactly once, each *certificate*
``(owner, block, core, signature)`` it newly **used** (resolved during
a successful validation or its own expansion).  The same induction as
the crash variant shows every reference inside a correct processor's
message is resolvable by all correct receivers when it arrives; the
"used" restriction keeps a certificate-flooding adversary from
amplifying its own garbage through correct processors.

Rounds: ``simul(r) = r`` — a ``(t + 1)``-round protocol stays
``t + 1`` rounds.  Communication: per block each correct processor
broadcasts ``O(n^k log n)`` of CORE plus at most ``O(n^2)`` used
certificates of ``O(n^k log |V|)`` bits — polynomial, like everything
else here.  The decision rule (EIG) still requires ``n >= 3t + 1``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.arrays.encoding import HEADER_BITS, MessageSizer
from repro.arrays.value_array import fold_tree, is_index_scalar
from repro.compact.driver import BlockDriver
from repro.compact.expansion import BindingExpansion
from repro.errors import ConfigurationError
from repro.fullinfo.decision import make_eig_decision_rule
from repro.fullinfo.protocol import DecisionRule
from repro.runtime.crypto import SignatureOracle
from repro.runtime.node import broadcast
from repro.types import BOTTOM, ProcessId, Round, SystemConfig, Value

# A binding key: (block, owner, digest).
BindingKey = Tuple[int, ProcessId, str]

# A wire certificate: ("cert", owner, block, core, signature).
# Payload main at phase-1 rounds: ("signed", core, signature);
# at other rounds: the bare CORE array.


def digest_of(core: Any) -> str:
    """Content address of a CORE array (repr is canonical for tuples)."""
    return hashlib.sha256(repr(core).encode()).hexdigest()[:16]


def _signed_payload(block: int, digest: str) -> Tuple:
    return ("auth-core", block, digest)


def _signed_core(main: Any) -> Optional[Tuple[Any, Any]]:
    """``(core, signature)`` of a phase-1 ``("signed", core, signature)``
    main component, ``None`` for anything else."""
    if isinstance(main, tuple) and len(main) == 3 and main[0] == "signed":
        return main[1], main[2]
    return None


def _certificates_of(payload: Any, n: int) -> List[Tuple]:
    """The well-formed ``("cert", owner, block, core, signature)`` patches.

    The one fail-closed reading of a field a Byzantine sender controls,
    shared by the receiver and the sizer: a payload that is not a dict,
    ``patches`` that is not a tuple, or an entry that is not a ``cert``
    5-tuple naming an owner id and a block ``>= 2`` is no certificate —
    0 bits, never an exception.  Nothing here looks inside ``core``.
    """
    patches = payload.get("patches") if isinstance(payload, dict) else None
    if not isinstance(patches, tuple):
        return []
    return [
        entry
        for entry in patches
        if isinstance(entry, tuple)
        and len(entry) == 5
        and entry[0] == "cert"
        and is_index_scalar(entry[1], n)
        and isinstance(entry[2], int)
        and entry[2] >= 2
    ]


#: Protoflow taint: received cores and certificates pass shape +
#: signature + expandability validation before use (docs/statics.md).
TAINT_SANITIZERS = {
    "_bind_certificate": (
        "checks the CORE shape before anything walks or hashes it, "
        "then the owner's signature over (block, digest) and that its "
        "references are already defined; only then does the "
        "certificate enter the expansion"
    ),
    "digest_of": (
        "a 16-hex-digit sha256 commitment: constant size, collision "
        "checked at learn(); relaying a digest relays no adversarial "
        "content"
    ),
}


class AuthExpansion(BindingExpansion):
    """Content-addressed expansion functions with used-key tracking.

    A reference is the scalar ``("ref", owner, digest)``, bound under
    ``(block, owner, digest)``; every key a lookup resolves through is
    recorded in :attr:`touched`.
    """

    def __init__(self, config: SystemConfig, value_alphabet: Sequence[Value]):
        super().__init__(config, value_alphabet)
        self.touched: Set[BindingKey] = set()

    def is_reference(self, scalar: Any) -> bool:
        return (
            isinstance(scalar, tuple)
            and len(scalar) == 3
            and scalar[0] == "ref"
            and is_index_scalar(scalar[1], self.config.n)
            and isinstance(scalar[2], str)
        )

    def _resolve(self, block: int, scalar: Any) -> Any:
        if not self.is_reference(scalar):
            return None
        key = (block, scalar[1], scalar[2])
        bound = self._bindings.get(key)
        if bound is not None:
            self.touched.add(key)
        return bound


class AuthCompactProcess(BlockDriver):
    """One processor of the authenticated compact protocol.

    On the shared block driver with no overhead rounds: a reference is
    ``("ref", owner, digest)``, bound by the owner's signed certificate;
    an unusable message is replaced by the receiver's own CORE (the
    Theorem 9 Case 3 substitution); the side channel carries each
    certificate a processor newly *used*, once.
    """

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        k: int,
        value_alphabet: Sequence[Value],
        oracle: SignatureOracle,
        decision_rule: Optional[DecisionRule] = None,
        horizon: Optional[int] = None,
    ):
        super().__init__(
            process_id, config, input_value, k, 0, value_alphabet,
            decision_rule, horizon,
        )
        self.oracle = oracle
        self.expansion = AuthExpansion(config, value_alphabet)
        # Certificates by binding key, for (single-shot) re-broadcast.
        self._certificates: Dict[BindingKey, Tuple] = {}
        self._attached: Set[BindingKey] = set()
        # What the next outgoing() sends, readied by _prepare_send().
        self._main: Any = input_value
        self._patches: Tuple = ()

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(
            {"main": self._main, "patches": self._patches}, self.config
        )

    def _prepare_send(self, next_round: Round) -> None:
        self._main = self.core
        if self.schedule.is_block_start(next_round):
            # The end-of-block CORE travels signed by its owner, and is
            # a binding its owner relies on like any other.
            block = self.schedule.block(next_round)
            digest = digest_of(self.core)
            signature = self.oracle.sign(
                self.process_id, _signed_payload(block, digest)
            )
            key = (block, self.process_id, digest)
            self.expansion.learn(key, self.core)
            self.expansion.touched.add(key)
            self._certificates[key] = (
                "cert", self.process_id, block, self.core, signature,
            )
            self._main = ("signed", self.core, signature)
        fresh = sorted(self.expansion.touched - self._attached)
        self._attached.update(fresh)
        self._patches = tuple(self._certificates[key] for key in fresh)

    # -- the side channel: certificates ----------------------------------------

    def _side_channel(self, incoming: Dict[ProcessId, Any]) -> None:
        entries = [
            entry
            for sender in self.config.process_ids
            for entry in _certificates_of(incoming.get(sender), self.config.n)
        ]
        # Lower blocks first: certificates may depend on one another.
        entries.sort(key=lambda entry: entry[2])
        for entry in entries:
            self._bind_certificate(entry)

    def _bind_certificate(self, certificate: Tuple) -> Optional[BindingKey]:
        """The key ``certificate`` binds, or ``None`` if it is invalid.

        The depth-bounded shape test runs before anything walks, hashes
        or signs the received ``core``; a key that is already bound
        vouches for every further copy of its content.
        """
        _, owner, block, core, signature = certificate
        if not self._shape_ok(core, self.k, block - 1):
            return None
        digest = digest_of(core)
        key = (block, owner, digest)
        if not self.expansion.has(key) and not (
            self.oracle.verify(signature, owner, _signed_payload(block, digest))
            and self.expansion.defined(block - 1, core)
        ):
            return None
        if self.expansion.learn(key, core):  # raises on a digest collision
            self._certificates[key] = certificate
        return key

    # -- main-component state changes ------------------------------------------

    def _rebase(self, block: int, incoming: Dict[ProcessId, Any]) -> None:
        # Unusable: the Theorem 9 Case 3 substitution, our own state.
        own = (block, self.process_id, digest_of(self.core))
        components = []
        for sender in self.config.process_ids:
            key = None
            signed = _signed_core(self._main_of(incoming.get(sender)))
            if signed is not None:
                key = self._bind_certificate(("cert", sender, block) + signed)
            if key is None:
                key = own
            self.expansion.touched.add(key)
            components.append(("ref", key[1], key[2]))
        self._set_core(tuple(components), block)

    def _main_of(self, message: Any) -> Any:
        return message.get("main", BOTTOM) if isinstance(message, dict) else BOTTOM


def auth_compact_ba_factory(
    config: SystemConfig,
    value_alphabet: Sequence[Value],
    oracle: SignatureOracle,
    k: int,
    default: Optional[Value] = None,
):
    """Authenticated-model Byzantine agreement in exactly t + 1 rounds."""
    if not config.requires_byzantine_quorum():
        raise ConfigurationError(
            f"the EIG decision rule needs n >= 3t+1; got n={config.n}, "
            f"t={config.t}"
        )
    if default is None:
        default = sorted(value_alphabet, key=repr)[0]
    rule = make_eig_decision_rule(
        config.t, default=default, alphabet=value_alphabet
    )

    def factory(
        process_id: ProcessId, system: SystemConfig, input_value: Value
    ) -> AuthCompactProcess:
        return AuthCompactProcess(
            process_id,
            system,
            input_value,
            k=k,
            value_alphabet=value_alphabet,
            oracle=oracle,
            decision_rule=rule,
            horizon=system.t + 1,
        )

    return factory


#: What the meter charges a reference's digest (16 hex digits) and a
#: signature.
DIGEST_BITS = 64
SIGNATURE_BITS = 64


def auth_sizer(config: SystemConfig, value_alphabet_size: int):
    """Bit measure: arrays as usual, 64-bit digests, 64-bit signatures."""
    sizer = MessageSizer(value_alphabet_size, config.n)

    def reference_bits(array: Tuple) -> Optional[int]:
        if len(array) == 3 and array[0] == "ref":
            return sizer.measure(array[1]) + DIGEST_BITS
        return None

    def measure_core(array: Any) -> int:
        return fold_tree(
            array, sizer.measure, lambda bits: HEADER_BITS + sum(bits),
            closed=reference_bits,
        )

    def measure(payload: Any) -> int:
        if not isinstance(payload, dict):
            return 0
        main = payload.get("main", BOTTOM)
        signed = _signed_core(main)
        total = (
            measure_core(main)
            if signed is None
            else measure_core(signed[0]) + SIGNATURE_BITS
        )
        for _, owner, _, core, _ in _certificates_of(payload, config.n):
            total += sizer.measure(owner) + measure_core(core) + SIGNATURE_BITS
        return total

    return measure
