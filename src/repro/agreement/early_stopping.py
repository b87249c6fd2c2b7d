"""Early-stopping crash consensus: ``min(f + 2, t + 1)`` rounds.

The benign-model companion to the paper's round-count story (Dolev,
Reischuk and Strong showed the ``min(f + 2, t + 1)`` bound, with ``f``
the number of faults that *actually occur*): a protocol tuned to ``t``
worst-case faults should not pay for them when the execution is
benign.  The compact crash variant decides in exactly ``t + 1`` rounds
(experiment E8); this protocol decides in 2 rounds when nothing
crashes at all.

**Protocol** (flooding with failure discovery), for crash faults:

* every round, broadcast the set of values seen so far;
* track ``heard(r)`` — the senders whose round-``r`` message arrived.
  Under crash faults the heard set only ever shrinks;
* decide ``min`` of the value set at the end of round ``r >= 2`` if
  ``heard(r) = heard(r - 1)`` (a *quiet* round: no failure became
  visible), or unconditionally at round ``t + 1``;
* keep broadcasting after deciding (late deciders still need input).

Why a quiet round suffices: hiding a value from processor ``p`` for
one more round costs one crash *visible to p* — the hider was heard in
the previous round (it was alive and broadcasting) and missing from
this one.  So if ``p`` sees no new failure, ``p``'s set is already
complete (contains every value any live processor holds), every later
set everywhere is a subset of what ``p`` flooded onward, and all
decisions equal ``min`` of the same complete set.  With ``f`` crashes
there are at most ``f`` shrink-steps, so some round in ``2..f + 2`` is
quiet for everyone.

This rule is **crash-only**: under message *omission* the heard set
can shrink and regrow, which would fake quiet rounds — the protocol
refuses nothing at runtime (it cannot see the model) but the guarantee
is stated, and the test suite exercises exactly the crash model.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional

from repro.errors import ConfigurationError
from repro.runtime.node import Process, broadcast
from repro.types import ProcessId, Round, SystemConfig, Value


class EarlyStoppingCrashProcess(Process):
    """One processor of early-stopping crash consensus."""

    def __init__(
        self,
        process_id: ProcessId,
        config: SystemConfig,
        input_value: Value,
    ):
        super().__init__(process_id, config)
        if config.t < 1 and config.n < 1:
            raise ConfigurationError("empty system")
        try:
            hash(input_value)
        except TypeError:
            raise ConfigurationError(
                f"values must be hashable, got {input_value!r}"
            )
        self.values = frozenset({input_value})
        self._previous_heard: Optional[FrozenSet[ProcessId]] = None

    def outgoing(self, round_number: Round) -> Dict[ProcessId, Any]:
        return broadcast(self.values, self.config)

    def receive(self, round_number: Round, incoming: Dict[ProcessId, Any]) -> None:
        heard = frozenset(
            sender
            for sender in self.config.process_ids
            if isinstance(incoming[sender], frozenset)
        )
        merged = set(self.values)
        for sender in heard:
            merged |= incoming[sender]
        self.values = frozenset(merged)

        quiet = (
            self._previous_heard is not None and heard == self._previous_heard
        )
        self._previous_heard = heard
        if not self.has_decided() and (
            quiet or round_number >= self.config.t + 1
        ):
            self.decide(min(self.values, key=repr), round_number)

    def snapshot(self) -> Any:
        # Sorted by ``repr``, the order :meth:`receive` decides by, so
        # the snapshot does not follow the hash seed.
        return {
            "values": tuple(sorted(self.values, key=repr)),
            "heard": tuple(sorted(self._previous_heard or (), key=repr)),
            "decision": self.decision,
        }


def early_stopping_factory():
    """A run_protocol factory for early-stopping crash consensus."""

    def factory(
        process_id: ProcessId, config: SystemConfig, input_value: Value
    ) -> EarlyStoppingCrashProcess:
        return EarlyStoppingCrashProcess(process_id, config, input_value)

    return factory
