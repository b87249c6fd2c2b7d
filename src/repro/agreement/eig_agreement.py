"""The exponential-communication Byzantine agreement baseline.

Corollary 10 leans on "known (t + 1)-round exponential-message
Byzantine agreement protocols, for example the protocol of Lamport et
al. [13]".  Here that protocol is the composition of Protocol 1 (full
information for ``t + 1`` rounds) with the EIG resolution rule of
:func:`repro.fullinfo.decision.eig_byzantine_decision` — exactly the
"decision rule to apply to the final state" the corollary's proof
invokes, running on real exchanged states instead of reconstructed
ones.  Resilience: ``n >= 3t + 1``, the bound of Lamport et al. that
every EIG-resolved protocol here inherits.

Two forms are provided:

* runnable processes (:func:`eig_agreement_factory` /
  :func:`run_eig_agreement`) for measuring the exponential
  communication the compact protocol eliminates (experiment E3),
* :class:`ExponentialAgreementAutomaton`, the same protocol in the
  Section 3.1 formalism — the canonical input to
  :func:`repro.core.transform.canonical_form`, closing the loop:
  transforming it reproduces Corollary 10's protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adversary.base import Adversary
from repro.fullinfo.decision import (
    check_eig_sweep_size,
    make_eig_decision_rule,
)
from repro.fullinfo.protocol import (
    FullInformationAutomaton,
    full_information_factory,
    full_information_sizer,
)
from repro.runtime.engine import ExecutionResult, run_protocol
from repro.types import SystemConfig, Value


def eig_agreement_factory(
    config: SystemConfig,
    value_alphabet: Sequence[Value],
    default: Optional[Value] = None,
):
    """A run_protocol factory for the exponential baseline.

    Raises :class:`~repro.errors.ConfigurationError` when the decision
    would sweep more relay chains than its tables may hold.
    """
    check_eig_sweep_size(config.n, config.t)
    if default is None:
        default = sorted(value_alphabet, key=repr)[0]
    rule = make_eig_decision_rule(
        config.t, default=default, alphabet=value_alphabet
    )
    return full_information_factory(
        value_alphabet=value_alphabet,
        decision_rule=rule,
        horizon=config.t + 1,
    )


def run_eig_agreement(
    config: SystemConfig,
    inputs,
    value_alphabet: Sequence[Value],
    adversary: Optional[Adversary] = None,
    default: Optional[Value] = None,
    seed: int = 0,
    record_trace: bool = False,
) -> ExecutionResult:
    """Run the ``t + 1``-round exponential protocol, fully metered."""
    factory = eig_agreement_factory(config, value_alphabet, default=default)
    return run_protocol(
        factory,
        config,
        inputs,
        adversary=adversary,
        max_rounds=config.t + 2,
        sizer=full_information_sizer(len(set(value_alphabet)), config.n),
        seed=seed,
        record_trace=record_trace,
    )


class ExponentialAgreementAutomaton(FullInformationAutomaton):
    """The exponential protocol as an automaton, for the transform.

    ``rounds_to_decide`` is ``t + 1``, so
    :func:`repro.core.transform.canonical_form` knows the horizon
    without being told.
    """

    def __init__(
        self,
        config: SystemConfig,
        input_values: Sequence[Value],
        default: Optional[Value] = None,
    ):
        if default is None:
            default = sorted(input_values, key=repr)[0]
        rule = make_eig_decision_rule(
            config.t, default=default, alphabet=input_values
        )
        super().__init__(
            config,
            input_values,
            decision_rule=rule,
            horizon=config.t + 1,
        )

    @property
    def rounds_to_decide(self) -> int:
        return self.config.t + 1
