"""Corollary 10: communication-efficient Byzantine agreement.

Running the compact full-information protocol for ``t + 1`` simulated
rounds and applying the decision rule of an exponential-communication
``(t + 1)``-round protocol (the EIG resolution of Lamport et al.)
yields Byzantine agreement in ``(1 + eps)(t + 1)`` actual rounds with
``O(t * n^(k+3) * log |V|)`` message bits, where ``k = ceil(2/eps)``.

This module packages that composition: pick ``k`` directly or via
``eps``, run, decide.  Resilience: ``n >= 3t + 1``, the corollary's
Byzantine bound.  With ``overhead=1`` (and ``n >= 4t + 1``) the
Section 5.6 fast variant applies and ``k = ceil(1/eps)`` suffices.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adversary.base import Adversary
from repro.compact.payload import compact_sizer, payload_is_null
from repro.compact.protocol import compact_factory
from repro.core.rounds import BlockSchedule, k_for_epsilon
from repro.errors import ConfigurationError
from repro.fullinfo.decision import make_eig_decision_rule
from repro.runtime.engine import ExecutionResult, run_protocol
from repro.types import SystemConfig, Value


def resolve_k(
    config: SystemConfig,
    k: Optional[int] = None,
    epsilon: Optional[float] = None,
    overhead: int = 2,
) -> int:
    """The block parameter: given directly, or derived from ``eps``."""
    if (k is None) == (epsilon is None):
        raise ConfigurationError("give exactly one of k and epsilon")
    if k is not None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        return k
    return k_for_epsilon(epsilon, overhead=overhead)


def compact_ba_rounds(
    t: int, k: int, overhead: int = 2
) -> int:
    """Actual rounds to a decision: ``t + 1`` simulated rounds' worth."""
    return BlockSchedule(k, overhead).actual_rounds_for(t + 1)


def compact_ba_factory(
    config: SystemConfig,
    value_alphabet: Sequence[Value],
    default: Value,
    k: Optional[int] = None,
    epsilon: Optional[float] = None,
    overhead: int = 2,
    expose_full_state: bool = False,
):
    """A run_protocol factory for the Corollary 10 protocol.

    ``default`` is the value every correct processor adopts where the
    EIG resolution finds no strict majority; it must be common
    knowledge (any fixed element of ``V`` works).
    """
    block_parameter = resolve_k(config, k=k, epsilon=epsilon, overhead=overhead)
    rule = make_eig_decision_rule(
        config.t, default=default, alphabet=value_alphabet
    )
    return compact_factory(
        k=block_parameter,
        value_alphabet=value_alphabet,
        decision_rule=rule,
        horizon=config.t + 1,
        overhead=overhead,
        expose_full_state=expose_full_state,
    )


def run_compact_byzantine_agreement(
    config: SystemConfig,
    inputs,
    value_alphabet: Sequence[Value],
    k: Optional[int] = None,
    epsilon: Optional[float] = None,
    overhead: int = 2,
    adversary: Optional[Adversary] = None,
    default: Optional[Value] = None,
    seed: int = 0,
    record_trace: bool = False,
    expose_full_state: bool = False,
    meter_adversary: bool = False,
) -> ExecutionResult:
    """Run one execution of the Corollary 10 protocol, fully metered."""
    if default is None:
        default = sorted(value_alphabet, key=repr)[0]
    block_parameter = resolve_k(config, k=k, epsilon=epsilon, overhead=overhead)
    factory = compact_ba_factory(
        config,
        value_alphabet,
        default=default,
        k=block_parameter,
        overhead=overhead,
        expose_full_state=expose_full_state,
    )
    deadline = compact_ba_rounds(config.t, block_parameter, overhead)
    return run_protocol(
        factory,
        config,
        inputs,
        adversary=adversary,
        max_rounds=deadline + 1,
        sizer=compact_sizer(config, len(set(value_alphabet))),
        is_null=payload_is_null,
        seed=seed,
        record_trace=record_trace,
        meter_adversary=meter_adversary,
    )
