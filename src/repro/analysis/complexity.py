"""Closed-form communication models (Section 5.6's arithmetic).

Two kinds of number live here and are kept clearly apart:

* **exact model sizes** for *our* encoding
  (:func:`full_information_message_bits`, :func:`eig_total_bits`) —
  these match the meters bit-for-bit and tests assert that;
* **asymptotic estimates** with the constants set to 1
  (:func:`compact_bits_estimate`, :func:`st_bits_estimate`) —
  the paper gives only O(.) bounds for these, so the estimates are
  for shape comparison (growth exponents, crossovers), not equality.

A third kind is a **message budget**: the most bits one correct
processor's round-``r`` message can take under a protocol's meter.
Every catalogued protocol states one
(:attr:`repro.fuzz.protocols.ProtocolSpec.message_bits`), and a fuzz
campaign holds each metered round of every execution to it.  The
budgets below are stated in the meters' own units, with every
constant, not as O(.) estimates: where a shape is data-dependent (a
leaf that is a value or an index, a vote that is null or a CORE) they
charge the larger.
"""

from __future__ import annotations

import math

from repro.arrays.encoding import HEADER_BITS, bits_for_alphabet
from repro.core.rounds import BlockSchedule, actual_rounds_for
from repro.errors import ConfigurationError
from repro.runtime.network import DEFAULT_LEAF_BITS, DEFAULT_NODE_BITS
from repro.types import SystemConfig


def _tuple_nodes(n: int, depth: int) -> int:
    """Number of tuple nodes in a depth-``depth`` array over ``n``."""
    if depth == 0:
        return 0
    return (n**depth - 1) // (n - 1) if n > 1 else depth


def _core_bits(n: int, depth: int, leaf_bits: int) -> int:
    """Exact size of one depth-``depth`` array of uniform leaves."""
    return n**depth * leaf_bits + _tuple_nodes(n, depth) * HEADER_BITS


def full_information_message_bits(
    n: int, round_number: int, value_alphabet_size: int
) -> int:
    """Exact size of one round-``r`` full-information message.

    The message is the sender's round-``r - 1`` state: a depth-
    ``r - 1`` value array with ``n ** (r - 1)`` leaves.
    """
    if round_number < 1:
        raise ConfigurationError(f"rounds are 1-based, got {round_number}")
    return _core_bits(n, round_number - 1, bits_for_alphabet(value_alphabet_size))


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


# -- message budgets ---------------------------------------------------------


def _default_array_bits(n: int, depth: int) -> int:
    """A depth-``depth`` array under the default sizer."""
    return _tuple_nodes(n, depth) * DEFAULT_NODE_BITS + n**depth * DEFAULT_LEAF_BITS


def compact_message_bits(
    config: SystemConfig,
    round_number: int,
    k: int,
    overhead: int = 2,
    value_alphabet_size: int = 2,
) -> int:
    """Budget of one round-``r`` Protocol 3 payload under its meter
    (:func:`repro.compact.payload.compact_sizer`).

    The main component is the round's CORE: the input in round 1, the
    depth-``phase - 1`` CORE in phases ``2..k + 1``, nothing in a
    rebase round or in phase ``k + 2`` (Section 5.3).  Beside it, every
    batch started so far — batches are never retired — carries ``n``
    votes of at most one end-of-block (depth-``k``) CORE each.  A leaf
    is charged as the dearer of a value and a processor index: the
    sizer charges a value that is also an id ``1..n`` as an index.
    """
    schedule = BlockSchedule(k, overhead)
    n = config.n
    leaf = max(bits_for_alphabet(value_alphabet_size), bits_for_alphabet(n))
    phase = schedule.phase(round_number)
    if round_number == 1:
        main = leaf
    elif 2 <= phase <= k + 1:
        main = _core_bits(n, phase - 1, leaf)
    else:
        main = 0
    # A block's batch is staged in its phase k + 1 and votes from the
    # next round on.
    batches = sum(
        1
        for block in range(1, schedule.block(round_number) + 1)
        if schedule.first_round_of_block(block) + k < round_number
    )
    return main + batches * n * _core_bits(n, k, leaf)


def auth_compact_message_bits(
    config: SystemConfig,
    round_number: int,
    k: int,
    value_alphabet_size: int = 2,
) -> int:
    """Budget of one round-``r`` authenticated compact payload under
    its meter (:func:`repro.compact.authenticated_variant.auth_sizer`).

    Blocks are ``k`` rounds.  The main component is the input in round
    1, the signed end-of-previous-block CORE at a block start, and the
    depth-``phase - 1`` CORE otherwise; block-1 COREs have value
    leaves, later ones ``("ref", owner, digest)`` references.  Beside
    it ride the certificates first used in the previous round: the
    sender's own for the new block and at most one per owner for the
    block before, each an owner id, a depth-``k`` CORE and a
    signature.  (The fuzz gallery cannot sign, so a faulty owner binds
    no second version of a block.)
    """
    from repro.compact.authenticated_variant import DIGEST_BITS, SIGNATURE_BITS

    schedule = BlockSchedule(k, 0)
    n = config.n
    index = bits_for_alphabet(n)
    value = max(bits_for_alphabet(value_alphabet_size), index)
    reference = index + DIGEST_BITS

    def core(block: int, depth: int) -> int:
        return _core_bits(n, depth, value if block == 1 else reference)

    if round_number == 1:
        return value
    block = schedule.block(round_number)
    phase = schedule.phase(round_number)
    if phase == 1:
        main = core(block - 1, k) + SIGNATURE_BITS
    else:
        main = core(block, phase - 1)
    certificate = index + core(block - 1, k) + SIGNATURE_BITS
    return main + (n + 1) * certificate


def firing_squad_message_bits(config: SystemConfig, round_number: int) -> int:
    """Budget of one round-``r`` firing-squad payload, default sizer.

    The payload maps each live instance's start round to its state: an
    instance opened ``d`` rounds ago holds a depth-``d`` view, and it
    retires after its ``t + 1``-th exchange, so ages ``0..min(t, r -
    1)`` are live at most.
    """
    return DEFAULT_NODE_BITS + sum(
        DEFAULT_LEAF_BITS + _default_array_bits(config.n, age)
        for age in range(min(config.t, round_number - 1) + 1)
    )


def dolev_strong_message_bits(config: SystemConfig, round_number: int) -> int:
    """Budget of one round-``r`` Dolev–Strong payload, default sizer.

    A round-``r`` claim is ``("claim", source, value, chain)`` with
    ``r`` signatures in its chain.  Round 1 sends the sender's own
    claim; afterwards a processor relays at most two values per other
    source over the whole run.
    """
    claims = 1 if round_number == 1 else 2 * (config.n - 1)
    claim = (
        2 * DEFAULT_NODE_BITS + 3 * DEFAULT_LEAF_BITS
        + round_number * DEFAULT_LEAF_BITS
    )
    return DEFAULT_NODE_BITS + claims * claim


def st_message_bits(
    config: SystemConfig, round_number: int, value_alphabet_size: int = 2
) -> int:
    """Budget of one round-``r`` Srikanth–Toueg item set under its
    meter (:func:`repro.agreement.srikanth_toueg.st_sizer`).

    A correct processor sends each ``(kind, key)`` item at most once,
    and only for keys of phases ``1..ceil(r / 2)``.  The budget allows
    ``n ** 2`` keys a phase — one per broadcaster and first correct
    echoer, since ``t + 1`` echoes need a correct one and a correct
    processor echoes one init per broadcaster — with an init, its own
    echo and an echo for each, plus the sender's own input.
    """
    from repro.agreement.srikanth_toueg import st_item_bits

    phases = (round_number + 1) // 2
    items = 2 + 3 * phases * config.n**2
    return items * st_item_bits(config, value_alphabet_size)
