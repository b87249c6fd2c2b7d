"""The canonical-form transformation (the paper's headline result).

Any synchronous consensus protocol ``P``, given as an
:class:`repro.core.automaton.AutomatonProtocol`, is transformed in two
steps:

1. **Theorem 2** — the full-information protocol simulates ``P`` with
   the identity scaling function and the recursive reconstruction
   ``f_p`` of :func:`repro.fullinfo.protocol.reconstruct_state`;
   composing ``P``'s decision functions with ``f_p`` gives decision
   rules for the full-information protocol
   (:func:`full_information_form`).
2. **Theorem 9** — the compact full-information protocol simulates the
   full-information protocol with scaling function ``simul``; applying
   the same derived decision rules to ``FULL_STATE`` yields the
   communication-efficient canonical form (:func:`canonical_form`).

By Theorem 1 the result terminates whenever ``P`` does and satisfies
every correctness predicate ``P`` satisfies, while using
``O(r * n^(k+3) * log |V|)`` message bits and
``(1 + eps)`` times ``P``'s rounds, ``k = ceil(2/eps)``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from repro.adversary.base import Adversary
from repro.compact.payload import compact_sizer, payload_is_null
from repro.compact.protocol import compact_factory
from repro.core.automaton import AutomatonProtocol
from repro.core.rounds import BlockSchedule, k_for_epsilon
from repro.errors import ConfigurationError
from repro.fullinfo.protocol import (
    DerivedDecisionRule,
    full_information_factory,
    full_information_sizer,
)
from repro.runtime.engine import ExecutionResult, run_protocol


@dataclasses.dataclass
class CanonicalForm:
    """The transformed protocol, ready to run.

    ``factory``/``sizer``/``is_null`` plug straight into
    :func:`repro.runtime.engine.run_protocol`; ``deadline`` is the
    actual round by which every correct processor decides.
    """

    source: AutomatonProtocol
    k: int
    overhead: int
    horizon: int
    deadline: int
    factory: Callable
    sizer: Callable[[Any], int]
    is_null: Callable[[Any], bool]

    def run(
        self,
        inputs,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
        record_trace: bool = False,
    ) -> ExecutionResult:
        """Run one execution of the canonical-form protocol."""
        return run_protocol(
            self.factory,
            self.source.config,
            inputs,
            adversary=adversary,
            max_rounds=self.deadline + 1,
            sizer=self.sizer,
            is_null=self.is_null,
            seed=seed,
            record_trace=record_trace,
        )


def _require_horizon(protocol: AutomatonProtocol, horizon: Optional[int]) -> int:
    resolved = horizon if horizon is not None else protocol.rounds_to_decide
    if resolved is None:
        raise ConfigurationError(
            "the source protocol must declare rounds_to_decide (or pass "
            "horizon=) so the transformation knows how many rounds to simulate"
        )
    return resolved


def canonical_form(
    protocol: AutomatonProtocol,
    k: Optional[int] = None,
    epsilon: Optional[float] = None,
    overhead: int = 2,
    horizon: Optional[int] = None,
) -> CanonicalForm:
    """Transform ``protocol`` into its communication-efficient form.

    Exactly one of ``k`` (the block parameter) and ``epsilon`` (the
    admissible round-count inflation) must be given.
    """
    if (k is None) == (epsilon is None):
        raise ConfigurationError("give exactly one of k and epsilon")
    block_parameter = k if k is not None else k_for_epsilon(epsilon, overhead)
    resolved_horizon = _require_horizon(protocol, horizon)
    rule = DerivedDecisionRule(protocol, horizon=resolved_horizon)
    schedule = BlockSchedule(block_parameter, overhead)
    return CanonicalForm(
        source=protocol,
        k=block_parameter,
        overhead=overhead,
        horizon=resolved_horizon,
        deadline=schedule.actual_rounds_for(resolved_horizon),
        factory=compact_factory(
            k=block_parameter,
            value_alphabet=protocol.input_values,
            decision_rule=rule,
            horizon=resolved_horizon,
            overhead=overhead,
        ),
        sizer=compact_sizer(protocol.config, len(set(protocol.input_values))),
        is_null=payload_is_null,
    )


def full_information_form(
    protocol: AutomatonProtocol,
    horizon: Optional[int] = None,
) -> CanonicalForm:
    """Theorem 2 alone: ``protocol`` as a full-information protocol.

    Same decisions as :func:`canonical_form` but with exponential
    communication and no round inflation — the intermediate protocol
    of the two-step transformation, exposed for comparison benchmarks.
    """
    resolved_horizon = _require_horizon(protocol, horizon)
    rule = DerivedDecisionRule(protocol, horizon=resolved_horizon)
    return CanonicalForm(
        source=protocol,
        k=0,
        overhead=0,
        horizon=resolved_horizon,
        deadline=resolved_horizon,
        factory=full_information_factory(
            value_alphabet=protocol.input_values,
            decision_rule=rule,
            horizon=resolved_horizon,
        ),
        sizer=full_information_sizer(
            len(set(protocol.input_values)), protocol.config.n
        ),
        is_null=lambda message: False,
    )
