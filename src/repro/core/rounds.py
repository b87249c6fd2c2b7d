"""Round arithmetic for the compact full-information protocol.

Section 5.1 defines, for a protocol structured in blocks of ``k + 2``
rounds (``k`` progress rounds followed by 2 overhead rounds), four
relations between actual round numbers and simulated round numbers:

* ``block(r)``  — which block round ``r`` belongs to,
* ``prior(r)``  — the last round before the current block,
* ``phase(r)``  — rounds since the start of the current block,
* ``simul(r)``  — rounds of full-information progress made so far.

Table 1 of the paper tabulates these for ``k = 2`` over 14 actual
rounds (8 simulated rounds); ``benchmarks/test_bench_table1.py``
regenerates that table from these functions.  The module-level
functions are that standard case of :class:`BlockSchedule`, which also
covers the fast variant's single overhead round and the zero-overhead
fault models, where ``simul(r) = r``.

The source text's formulas are OCR-damaged; the definitions below are
the unique ones consistent with the table's shape and with the uses in
Lemmas 7–8 and Theorem 9 (e.g. ``simul`` must gain exactly 1 in each
of the first ``k`` phases and stall through phases ``k+1`` and
``k+2``; 14 actual rounds with ``k = 2`` must yield 8 simulated
rounds, as the paper's caption states).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, List

from repro.errors import ConfigurationError
from repro.types import Round


def block(round_number: Round, k: int) -> int:
    """The block (1-based) of which ``round_number`` is a part."""
    return BlockSchedule(k).block(round_number)


def prior(round_number: Round, k: int) -> Round:
    """The last round prior to the current block (0 for block 1)."""
    return BlockSchedule(k).prior(round_number)


def phase(round_number: Round, k: int) -> int:
    """Rounds since the start of the current block, in ``1..k+2``."""
    return BlockSchedule(k).phase(round_number)


def simul(round_number: Round, k: int) -> int:
    """Simulated full-information rounds completed by ``round_number``.

    Gains one per phase through phase ``k``; freezes during the two
    overhead phases.
    """
    return BlockSchedule(k).simul(round_number)


def actual_rounds_for(simulated_rounds: int, k: int, overhead: int = 2) -> Round:
    """Fewest actual rounds that simulate ``simulated_rounds`` rounds.

    The final block does not need its overhead rounds: once the last
    progress round has run, a decision rule can be applied
    immediately.  This is the round count behind Corollary 10: with
    ``k = ceil(2 / eps)`` (and the standard overhead of 2) the result
    is at most ``(1 + eps) * simulated_rounds``.  The ``n >= 4t + 1``
    variant of Section 5.6 has ``overhead = 1``.
    """
    return BlockSchedule(k, overhead).actual_rounds_for(simulated_rounds)


def k_for_epsilon(epsilon: float, overhead: int = 2) -> int:
    """The paper's parameter choice ``k = ceil(2 / eps)`` (Corollary 10).

    Generalised: ``(k + overhead) / k <= 1 + eps`` needs
    ``k >= overhead / eps``.
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    return math.ceil(overhead / epsilon)


def overhead_factor(k: int, overhead: int = 2) -> float:
    """Worst-case actual/simulated round ratio, ``(k + overhead) / k``."""
    return BlockSchedule(k, overhead).block_length / k


@dataclasses.dataclass(frozen=True)
class BlockSchedule:
    """All round arithmetic for one parameter ``k``, as an object.

    Protocol code holds one of these and asks structural questions
    (is this a progress round? does an avalanche batch start now?)
    instead of re-deriving modular arithmetic inline.

    ``overhead`` is the number of non-progress rounds per block: 2 for
    the paper's main construction (rebroadcast + avalanche start), 1
    for the ``n >= 4t + 1`` fast variant of Section 5.6 in which the
    one-round-consensus avalanche folds its first round into the next
    block's first progress round, and 0 for the fault models whose
    block-boundary references need no agreement at all (crash,
    omission, authenticated Byzantine): every round is a progress
    round and ``simul(r) = r``.
    """

    k: int
    overhead: int = 2
    #: Rounds per block, ``k + overhead``.
    block_length: int = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(
                f"block parameter k must be >= 1, got {self.k}"
            )
        if self.overhead not in (0, 1, 2):
            raise ConfigurationError(
                f"overhead must be 0, 1 or 2, got {self.overhead}"
            )
        object.__setattr__(self, "block_length", self.k + self.overhead)

    def block(self, round_number: Round) -> int:
        if round_number < 1:
            raise ConfigurationError(
                f"round numbers are 1-based, got {round_number}"
            )
        return (round_number - 1) // self.block_length + 1

    def prior(self, round_number: Round) -> Round:
        return (self.block(round_number) - 1) * self.block_length

    def phase(self, round_number: Round) -> int:
        return round_number - (self.block(round_number) - 1) * self.block_length

    def simul(self, round_number: Round) -> int:
        return self.k * (self.block(round_number) - 1) + min(
            self.phase(round_number), self.k
        )

    def is_progress_round(self, round_number: Round) -> bool:
        """Phases ``1..k`` advance the simulation."""
        return self.phase(round_number) <= self.k

    def is_rebroadcast_round(self, round_number: Round) -> bool:
        """Phase ``k + 1``: the end-of-block CORE is re-broadcast."""
        return self.phase(round_number) == self.k + 1

    def is_agreement_start_round(self, round_number: Round) -> bool:
        """The round in which a block's avalanche batch takes its
        first step: phase ``k + 2`` with the standard overhead, the
        next block's phase 1 with the fast variant's overhead of 1,
        and never without overhead (no avalanche runs)."""
        if self.overhead == 2:
            return self.phase(round_number) == self.k + 2
        return (
            self.overhead == 1
            and round_number > 1
            and self.is_block_start(round_number)
        )

    def is_block_start(self, round_number: Round) -> bool:
        """Phase 1 — where block ``b > 1`` rebases its CORE."""
        return self.phase(round_number) == 1

    def first_round_of_block(self, block_number: int) -> Round:
        """The actual round at which ``block_number`` begins."""
        if block_number < 1:
            raise ConfigurationError(
                f"block numbers are 1-based, got {block_number}"
            )
        return (block_number - 1) * self.block_length + 1

    def actual_rounds_for(self, simulated_rounds: int) -> Round:
        """Fewest actual rounds to reach ``simulated_rounds`` of progress."""
        if simulated_rounds < 1:
            raise ConfigurationError(
                f"simulated_rounds must be >= 1, got {simulated_rounds}"
            )
        full_blocks, last = divmod(simulated_rounds - 1, self.k)
        return full_blocks * self.block_length + last + 1

    def table(self, rounds: int) -> List[dict]:
        """Rows of Table 1: round, block, prior, phase, simul."""
        return [
            {
                "r": round_number,
                "block": self.block(round_number),
                "prior": self.prior(round_number),
                "phase": self.phase(round_number),
                "simul": self.simul(round_number),
            }
            for round_number in range(1, rounds + 1)
        ]

    def progress_rounds(self, up_to: Round) -> Iterator[Round]:
        """Actual rounds with phase ``<= k``, ascending, through ``up_to``."""
        for round_number in range(1, up_to + 1):
            if self.is_progress_round(round_number):
                yield round_number

