"""Ben-Or's randomized agreement (synchronous form).

Protocol 2's informal description credits "previously known randomized
protocols" — Ben-Or [1] first among them — for its vote/adopt/decide
structure.  This module implements the synchronous version of that
ancestor, both as a baseline and to make the lineage testable: the
thresholds below are exactly avalanche agreement's, with a coin flip
where avalanche tolerates non-termination.  Resilience:
``n >= 3t + 1``, as for avalanche agreement itself.

Each phase is two rounds:

* **report** — broadcast the current value; a value seen more than
  ``(n + t) / 2`` times becomes this processor's *proposal* (two
  different proposals would need two quorums sharing a correct
  processor, so at most one value is proposed by correct processors);
* **propose** — broadcast the proposal (or none); on receiving
  ``2t + 1`` matching proposals decide that value, on ``t + 1`` adopt
  it, otherwise flip a fair coin.

Agreement: a first decision implies at least ``t + 1`` correct
proposers, so every correct processor adopts the value and the next
phase decides unanimously.  Validity: a unanimous start proposes and
decides in phase 1.  Termination is probabilistic (the adversary can
force coin flips), so executions are bounded by ``max_phases`` and the
tests drive the RNG.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.runtime.rng import derive_rng
from repro.types import ProcessId, Round, SystemConfig, Value

_NO_PROPOSAL = "no-proposal"


class BenOrProcess(Process):
    """Binary randomized agreement for ``n >= 3t + 1``."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
        rng: np.random.Generator,
    ):
        super().__init__(process_id, config)
        if not config.requires_byzantine_quorum():
            raise ConfigurationError(
                f"Ben-Or needs n >= 3t+1; got n={config.n}, t={config.t}"
            )
        if input_value not in (0, 1) or isinstance(input_value, bool):
            raise ConfigurationError(f"Ben-Or is binary; got {input_value!r}")
        self.value = int(input_value)
        self._rng = rng
        self._proposal: Any = _NO_PROPOSAL

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        if round_number % 2 == 1:  # report round
            return broadcast(("report", self.value), self.config)
        return broadcast(("propose", self._proposal), self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        config = self.config
        if round_number % 2 == 1:
            counts = [0, 0]
            for sender in config.process_ids:
                bit = self._parse(incoming[sender], "report")
                if bit is not None:
                    counts[bit] += 1
            quorum = (config.n + config.t) // 2 + 1
            self._proposal = _NO_PROPOSAL
            for bit in (0, 1):
                if counts[bit] >= quorum:
                    self._proposal = bit
        else:
            counts = [0, 0]
            for sender in config.process_ids:
                bit = self._parse(incoming[sender], "propose")
                if bit is not None:
                    counts[bit] += 1
            leader = 0 if counts[0] >= counts[1] else 1
            if counts[leader] >= 2 * config.t + 1:
                self.value = leader
                if not self.has_decided():
                    self.decide(leader, round_number)
            elif counts[leader] >= config.t + 1:
                self.value = leader
            elif not self.has_decided():
                self.value = int(self._rng.integers(0, 2))

    @staticmethod
    def _parse(message: Any, expected_tag: str) -> Optional[int]:
        if (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == expected_tag
            and message[1] in (0, 1)
            and not isinstance(message[1], bool)
        ):
            return int(message[1])
        return None

    def snapshot(self) -> Any:
        return {"value": self.value, "decision": self.decision}


def ben_or_factory(seed: int = 0):
    """A run_protocol factory; each processor gets a derived coin stream."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> BenOrProcess:
        return BenOrProcess(
            process_id,
            config,
            input_value,
            rng=derive_rng(seed, "ben-or", process_id),
        )

    return factory
