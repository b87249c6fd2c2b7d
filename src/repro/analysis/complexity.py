"""Closed-form communication models (Section 5.6's arithmetic).

Two kinds of number live here and are kept clearly apart:

* **exact model sizes** for *our* encoding
  (:func:`full_information_message_bits`, :func:`eig_total_bits`) —
  these match the meters bit-for-bit and tests assert that;
* **asymptotic estimates** with the constants set to 1
  (:func:`compact_bits_estimate`, :func:`st_bits_estimate`) —
  the paper gives only O(.) bounds for these, so the estimates are
  for shape comparison (growth exponents, crossovers), not equality.
"""

from __future__ import annotations

import math

from repro.arrays.encoding import HEADER_BITS, bits_for_alphabet
from repro.core.rounds import actual_rounds_for
from repro.errors import ConfigurationError


def _tuple_nodes(n: int, depth: int) -> int:
    """Number of tuple nodes in a depth-``depth`` array over ``n``."""
    if depth == 0:
        return 0
    return (n**depth - 1) // (n - 1) if n > 1 else depth


def full_information_message_bits(
    n: int, round_number: int, value_alphabet_size: int
) -> int:
    """Exact size of one round-``r`` full-information message.

    The message is the sender's round-``r - 1`` state: a depth-
    ``r - 1`` value array with ``n ** (r - 1)`` leaves.
    """
    if round_number < 1:
        raise ConfigurationError(f"rounds are 1-based, got {round_number}")
    depth = round_number - 1
    value_bits = bits_for_alphabet(value_alphabet_size)
    return n**depth * value_bits + _tuple_nodes(n, depth) * HEADER_BITS


def eig_total_bits(n: int, t: int, value_alphabet_size: int) -> int:
    """Exact total traffic of the exponential baseline.

    ``t + 1`` rounds; in round ``r`` each of ``n`` processors sends its
    state to all ``n`` processors.  Matches the runtime meter exactly
    in fault-free executions (faulty senders are not metered).
    """
    return sum(
        n * n * full_information_message_bits(n, round_number, value_alphabet_size)
        for round_number in range(1, t + 2)
    )


def compact_bits_estimate(
    n: int, t: int, k: int, value_alphabet_size: int, overhead: int = 2
) -> float:
    """The paper's bound with constants 1: ``r * n^(k+3) * log |V|``.

    The avalanche portion dominates: in each of ``O(t)`` rounds each
    processor broadcasts at most ``n`` messages of size
    ``O(n^k log |V|)``.
    """
    rounds = actual_rounds_for(t + 1, k, overhead)
    return rounds * float(n) ** (k + 3) * bits_for_alphabet(value_alphabet_size)


def st_bits_estimate(n: int, t: int, value_alphabet_size: int) -> float:
    """Srikanth–Toueg as quoted: ``O(t * n^2 * log n * log |V|)``."""
    return (
        (2 * t + 1)
        * float(n) ** 2
        * max(1.0, math.log2(n))
        * bits_for_alphabet(value_alphabet_size)
    )
