"""The protocol catalog: each protocol registered once.

A :class:`ProtocolSpec` is everything the harness knows about one
protocol — how to build its processes for a system configuration, the
resilience it needs, its declared round bound, how to sample a legal
input vector, which oracles judge an execution (the protocol's *own*
correctness predicate, in Theorem 1's sense), its paper-exact bit
meter where it has one, and its message budget: the most bits one
correct processor's round-``r`` message can take under that meter.
Registering a spec is the whole integration surface: `repro fuzz
--protocol <name>`, the corpus replayer, the gallery conformance sweep
(``tests/integration/test_catalog.py``), the schedule-equivalence
suite and the Section 5.6 comparison (:mod:`repro.analysis.compare`)
all read the entry, and ``tests/integration/test_catalog.py`` checks
the live registry against the imported protocol packages, so a
``*_factory`` that is neither registered here nor excused in
:data:`CATALOG_EXEMPT` fails the test suite.

Tests may register throwaway mutants (e.g. a deliberately weakened
decision rule) under fresh names; see :func:`register` /
:func:`unregister`.

``differential_group`` ties protocols that must be judged on
*identical* scenarios: members of a group share sampled inputs, fault
sets and execution seeds, which is what gives the cross-protocol
differential oracle (:func:`repro.fuzz.oracles.differential_mismatches`)
its footing — compact-BA is *defined* (Corollary 10) as a simulation
of the EIG protocol, so the two runs are comparable point by point.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.agreement.ben_or import ben_or_factory
from repro.agreement.crusader import crusader_factory
from repro.agreement.dolev_strong import dolev_strong_factory, dolev_strong_rounds
from repro.agreement.eig_agreement import eig_agreement_factory
from repro.agreement.firing_squad import firing_squad_factory
from repro.agreement.phase_king import (
    phase_king_factory,
    phase_king_rounds,
    phase_queen_factory,
    phase_queen_rounds,
)
from repro.agreement.srikanth_toueg import (
    st_agreement_factory,
    st_agreement_rounds,
    st_sizer,
)
from repro.agreement.weak import weak_agreement_factory
from repro.analysis.complexity import (
    auth_compact_message_bits,
    compact_message_bits,
    dolev_strong_message_bits,
    firing_squad_message_bits,
    full_information_message_bits,
    st_message_bits,
)
from repro.avalanche.protocol import avalanche_factory
from repro.compact.authenticated_variant import auth_compact_ba_factory, auth_sizer
from repro.compact.byzantine_agreement import compact_ba_factory, compact_ba_rounds
from repro.compact.payload import compact_sizer, payload_is_null
from repro.errors import ConfigurationError
from repro.fullinfo.protocol import full_information_sizer
from repro.runtime.crypto import SignatureOracle
from repro.runtime.network import DEFAULT_LEAF_BITS, DEFAULT_NODE_BITS
from repro.types import BOTTOM, ProcessId, SystemConfig, Value

#: Builds one correct processor (the run_protocol factory shape).
ProcessBuilder = Callable[[ProcessId, SystemConfig, Value], Any]

#: Samples one legal input vector for the protocol.
InputSampler = Callable[[SystemConfig, np.random.Generator], Dict[ProcessId, Value]]

#: Factories that deliberately stay out of the registry, with the
#: reason.  The catalog test requires every ``*_factory`` in the
#: protocol packages to appear in a spec's ``build`` or here, so opting
#: out of the conformance sweep is an explicit, reviewed decision
#: rather than an omission.
CATALOG_EXEMPT = {
    "approximate_factory": "approximate agreement converges on reals; "
    "no oracle in repro.fuzz.oracles states its epsilon-agreement, and "
    "the gallery's discrete palettes are outside its input domain",
    "compact_factory": "the canonical-form combinator: it wraps an "
    "inner automaton and has no protocol of its own to catalog",
    "crash_compact_factory": "benign/crash-model variant; the "
    "Byzantine adversary gallery is outside its fault model",
    "early_stopping_factory": "crash-model consensus; the Byzantine "
    "gallery is outside its fault model",
    "turpin_coan_factory": "a multivalued-to-binary reduction that "
    "needs an inner binary BA factory as argument; covered through "
    "the protocols it wraps",
}

#: The engine cap for a randomized protocol, which declares no bound.
RANDOMIZED_ROUND_CAP = 800

#: The oracles of the Byzantine agreement task (Section 2).
BA_ORACLES: Tuple[str, ...] = ("decided", "agreement", "validity")


def sample_binary_inputs(
    config: SystemConfig, rng: np.random.Generator
) -> Dict[ProcessId, Value]:
    """An independent fair bit per processor."""
    return {
        process_id: int(rng.integers(0, 2))
        for process_id in config.process_ids
    }


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One catalogued protocol: how to build, bound and judge it."""

    name: str
    #: Human-readable label (docs, test ids).
    title: str
    #: Builds the run_protocol process factory for a configuration.
    build: Callable[[SystemConfig], ProcessBuilder]
    #: Names into :data:`repro.fuzz.oracles.ORACLES`, checked on every
    #: execution where it ran.
    oracles: Tuple[str, ...]
    #: The declared round bound: every correct processor has decided
    #: by round ``rounds(config)``.  ``None`` exactly for a
    #: ``randomized`` protocol.
    rounds: Optional[Callable[[SystemConfig], int]]
    #: The protocol needs ``n >= resilience * t + 1`` (read by
    #: :meth:`supports`); the factory's module docstring states it.
    resilience: int
    #: The message budget: ``(config, r) ->`` the most bits one correct
    #: processor's round-``r`` message can take under the spec's meter
    #: (closed forms in :mod:`repro.analysis.complexity`).  A campaign
    #: holds every metered round of every execution to it.
    message_bits: Callable[[SystemConfig, int], int]
    #: Draws one input vector from the campaign's RNG substream.
    sample_inputs: InputSampler = sample_binary_inputs
    #: Non-terminating / externally clocked: run exactly ``rounds``
    #: full rounds instead of stopping once all correct decide.
    run_full: bool = False
    randomized: bool = False
    #: Runs over the signature oracle: the generic gallery cannot
    #: sign, so only its silent strategy is a meaningful opponent.
    authenticated: bool = False
    #: Protocols sharing a group are run on identical scenarios and
    #: cross-checked by the differential oracle.
    differential_group: Optional[str] = None
    #: Values the adversary uses for equivocation and forged leaves.
    palette: Tuple[Value, ...] = (0, 1)
    #: The paper-exact bit meter, where the protocol has one:
    #: ``config -> {"sizer": ..., "is_null": ...}`` for run_protocol.
    metering: Optional[Callable[[SystemConfig], Dict[str, Any]]] = None

    def supports(self, config: SystemConfig) -> Optional[str]:
        """Why ``config`` is outside the protocol's resilience, if it is."""
        if config.n >= self.resilience * config.t + 1:
            return None
        return (
            f"needs n >= {self.resilience}t+1, got n={config.n}, t={config.t}"
        )

    def default_rounds(self, config: SystemConfig) -> Optional[int]:
        """Full rounds a run takes (``None`` = until all correct decide)."""
        if self.run_full and self.rounds is not None:
            return self.rounds(config)
        return None

    def round_cap(self, config: SystemConfig, rounds: Optional[int] = None) -> int:
        """The engine's safety cap: one past the declared bound, and
        past an explicit ``rounds`` (a replayed case may carry one)."""
        bound = RANDOMIZED_ROUND_CAP if self.rounds is None else self.rounds(config)
        return max(bound, rounds or 0) + 1

    def engine_arguments(
        self, config: SystemConfig, rounds: Optional[int] = None
    ) -> Dict[str, Any]:
        """How to run the protocol, under the keyword names
        ``run_protocol`` and ``SweepContext`` share.

        ``rounds`` overrides the spec's full-round count.  The meter is
        the spec's own ``metering`` where it has one, the default
        sizer otherwise: every caller sees the same bits.
        """
        if rounds is None:
            rounds = self.default_rounds(config)
        meter = self.metering(config) if self.metering else {}
        return {
            "max_rounds": self.round_cap(config, rounds),
            "run_full_rounds": rounds,
            "sizer": meter.get("sizer"),
            "is_null": meter.get("is_null"),
        }


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a protocol; its name becomes a `--protocol` choice."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"fuzz protocol {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a spec (tests registering mutants clean up with this)."""
    _REGISTRY.pop(name, None)


def get_spec(name: str) -> ProtocolSpec:
    """Look up a registered protocol by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fuzz protocol {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        )


def protocol_names() -> Tuple[str, ...]:
    """All registered names, sorted."""
    return tuple(sorted(_REGISTRY))


#: What `repro fuzz` runs when no --protocol is given: the paper's
#: protocols (the acceptance trio).
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("avalanche", "compact-ba", "eig")

#: The six-target campaign (the paper's trio plus crusader, weak
#: agreement and the firing squad) the benchmark's fuzz workload runs.
CATALOG_PROTOCOLS: Tuple[str, ...] = (
    "avalanche", "compact-ba", "crusader", "eig", "firing-squad", "weak"
)


# -- input samplers ----------------------------------------------------------


def sample_avalanche_inputs(
    config: SystemConfig, rng: np.random.Generator
) -> Dict[ProcessId, Value]:
    """Binary, with an occasional BOTTOM (a processor with no input)."""
    inputs: Dict[ProcessId, Value] = {}
    for process_id in config.process_ids:
        if float(rng.random()) < 0.1:
            inputs[process_id] = BOTTOM
        else:
            inputs[process_id] = int(rng.integers(0, 2))
    return inputs


def sample_go_rounds(
    config: SystemConfig, rng: np.random.Generator
) -> Dict[ProcessId, Value]:
    """Firing-squad stimuli: a GO round in 1..3, or never (BOTTOM)."""
    inputs: Dict[ProcessId, Value] = {}
    for process_id in config.process_ids:
        if float(rng.random()) < 0.25:
            inputs[process_id] = BOTTOM
        else:
            inputs[process_id] = int(rng.integers(1, 4))
    return inputs


# -- the paper's protocols ---------------------------------------------------

register(ProtocolSpec(
    name="avalanche",
    title="avalanche agreement (Protocol 2)",
    build=lambda config: avalanche_factory(),
    sample_inputs=sample_avalanche_inputs,
    oracles=("avalanche",),
    # Long enough for decisions to propagate and the one-round
    # avalanche window to be observable several times over.
    rounds=lambda config: config.t + 5,
    run_full=True,
    resilience=3,
    message_bits=lambda config, r: DEFAULT_LEAF_BITS,  # one scalar vote
))


def _compact_metering(config: SystemConfig) -> Dict[str, Any]:
    return {"sizer": compact_sizer(config, 2), "is_null": payload_is_null}


def compact_ba_spec(k: int) -> ProtocolSpec:
    """Corollary 10 at block parameter ``k`` (``k = 1`` is the
    registered ``compact-ba``: the smallest messages)."""
    return ProtocolSpec(
        name="compact-ba" if k == 1 else f"compact-ba-k{k}",
        title=f"compact BA (k={k})",
        build=lambda config: compact_ba_factory(config, (0, 1), default=0, k=k),
        oracles=BA_ORACLES,
        rounds=lambda config: compact_ba_rounds(config.t, k),
        resilience=3,
        message_bits=lambda config, r: compact_message_bits(config, r, k),
        differential_group="ba",
        metering=_compact_metering,
    )


register(compact_ba_spec(1))
register(compact_ba_spec(2))  # Corollary 10 at eps = 1

register(ProtocolSpec(
    name="eig",
    title="exponential EIG",  # Lamport et al. [13]: optimal rounds
    build=lambda config: eig_agreement_factory(config, (0, 1), default=0),
    oracles=BA_ORACLES + ("fullinfo-consistency",),
    rounds=lambda config: config.t + 1,
    resilience=3,
    message_bits=lambda config, r: full_information_message_bits(config.n, r, 2),
    # Protocol 1's processes under the EIG decision rule.
    differential_group="ba",
    metering=lambda config: {"sizer": full_information_sizer(2, config.n)},
))

register(ProtocolSpec(
    name="compact-ba-fast",
    title="compact BA (fast, k=1)",  # Section 5.6 variant, blocks of k + 1
    build=lambda config: compact_ba_factory(
        config, (0, 1), default=0, k=1, overhead=1
    ),
    oracles=BA_ORACLES,
    rounds=lambda config: compact_ba_rounds(config.t, 1, overhead=1),
    resilience=4,
    message_bits=lambda config, r: compact_message_bits(config, r, 1, 1),
    differential_group="ba",
    metering=_compact_metering,
))

register(ProtocolSpec(
    name="compact-ba-auth",
    title="compact BA (authenticated, k=1)",  # zero overhead rounds
    build=lambda config: auth_compact_ba_factory(
        config, (0, 1), SignatureOracle(), k=1, default=0
    ),
    oracles=BA_ORACLES,
    rounds=lambda config: config.t + 1,
    resilience=3,
    message_bits=lambda config, r: auth_compact_message_bits(config, r, 1),
    authenticated=True,
    differential_group="ba",
    metering=lambda config: {"sizer": auth_sizer(config, 2)},
))

# -- the agreement catalog ---------------------------------------------------

register(ProtocolSpec(
    name="srikanth-toueg",
    title="Srikanth-Toueg style",  # witnessed broadcasts, no signatures
    build=lambda config: st_agreement_factory(default=0),
    oracles=BA_ORACLES,
    rounds=lambda config: st_agreement_rounds(config.t),
    resilience=3,
    message_bits=st_message_bits,
    metering=lambda config: {"sizer": st_sizer(config, 2)},
))

register(ProtocolSpec(
    name="phase-king",
    title="Phase King",
    build=lambda config: phase_king_factory(),
    oracles=BA_ORACLES,
    rounds=lambda config: phase_king_rounds(config.t),
    resilience=3,
    message_bits=lambda config, r: DEFAULT_LEAF_BITS,  # a bit or no-proposal
))

register(ProtocolSpec(
    name="phase-queen",
    title="Phase Queen",
    build=lambda config: phase_queen_factory(),
    oracles=BA_ORACLES,
    rounds=lambda config: phase_queen_rounds(config.t),
    resilience=4,
    message_bits=lambda config, r: DEFAULT_LEAF_BITS,  # a bit
))

register(ProtocolSpec(
    name="ben-or",
    title="Ben-Or",
    build=lambda config: ben_or_factory(),
    oracles=BA_ORACLES,
    rounds=None,
    randomized=True,
    resilience=3,
    # ("report" | "propose", bit or no-proposal)
    message_bits=lambda config, r: DEFAULT_NODE_BITS + 2 * DEFAULT_LEAF_BITS,
))

register(ProtocolSpec(
    name="dolev-strong",
    title="Dolev-Strong (authenticated)",
    build=lambda config: dolev_strong_factory(SignatureOracle(), default=0),
    oracles=BA_ORACLES,
    rounds=lambda config: dolev_strong_rounds(config.t),
    resilience=2,
    message_bits=dolev_strong_message_bits,
    authenticated=True,
))

register(ProtocolSpec(
    name="crusader",
    title="crusader agreement",
    # The highest id is the source, so sampled fault sets cover both
    # the correct-source and faulty-source regimes.
    build=lambda config: crusader_factory(source=config.n),
    oracles=("decided", "crusader"),
    rounds=lambda config: 2,
    resilience=3,
    message_bits=lambda config, r: DEFAULT_LEAF_BITS,  # a value or an echo
))

register(ProtocolSpec(
    name="weak",
    title="weak agreement",
    build=lambda config: weak_agreement_factory(phase_king_factory(), default=0),
    oracles=("decided", "agreement", "weak-validity"),
    # One unanimity-test round, then the inner binary protocol.
    rounds=lambda config: 1 + phase_king_rounds(config.t),
    resilience=3,
    message_bits=lambda config, r: DEFAULT_LEAF_BITS,  # then Phase King's
))

register(ProtocolSpec(
    name="firing-squad",
    title="Byzantine firing squad",
    build=lambda config: firing_squad_factory(),
    sample_inputs=sample_go_rounds,
    oracles=("firing-squad",),
    # Latest sampled GO round (3) + the instance's t + 1 exchanges,
    # with one round of slack so simultaneity violations are visible.
    rounds=lambda config: 3 + config.t + 2,
    run_full=True,
    resilience=3,
    message_bits=firing_squad_message_bits,
))


__all__ = [
    "BA_ORACLES",
    "CATALOG_EXEMPT",
    "CATALOG_PROTOCOLS",
    "DEFAULT_PROTOCOLS",
    "ProtocolSpec",
    "compact_ba_spec",
    "get_spec",
    "protocol_names",
    "register",
    "sample_avalanche_inputs",
    "sample_binary_inputs",
    "sample_go_rounds",
    "unregister",
]
