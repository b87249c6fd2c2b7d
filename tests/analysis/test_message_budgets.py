"""Message budgets of the protocols no fuzz campaign runs.

``approximate``, ``early_stopping``, ``turpin_coan`` and
``crash_compact`` are exempt from the catalog (``CATALOG_EXEMPT``), so
no campaign holds them to a budget.  Here each runs at two sizes under
its fault model, and every metered round's bits a message stay within
a bound stated below — a function of ``n`` alone, never of the round.
"""

import pytest

from repro.adversary.byzantine import EquivocatingAdversary
from repro.adversary.crash import CrashAdversary
from repro.agreement.approximate import approximate_factory
from repro.agreement.early_stopping import early_stopping_factory
from repro.agreement.phase_king import phase_king_factory
from repro.agreement.turpin_coan import turpin_coan_factory
from repro.analysis.complexity import _core_bits
from repro.arrays.encoding import bits_for_alphabet
from repro.compact.crash_variant import crash_compact_factory, crash_sizer
from repro.runtime.engine import run_protocol
from repro.runtime.network import DEFAULT_LEAF_BITS, DEFAULT_NODE_BITS
from repro.types import SystemConfig

K = 2  # the crash variant's block length


def _crashes(config, first):
    """Processors ``1..t`` crash mid-broadcast, one a round from ``first``."""
    return {p: first + p - 1 for p in range(1, config.t + 1)}


def _crash_compact_bound(config):
    """A depth-``k`` CORE, plus the patches learned last round: at most
    one ``((boundary, sender), CORE)`` per sender for each of two
    boundaries (a rebase round's own, and the one before it that a
    crashing sender reached only partly)."""
    leaf = max(bits_for_alphabet(2), bits_for_alphabet(config.n))
    core = _core_bits(config.n, K, leaf)
    key = 2 + 2 * leaf
    return core + 2 * config.n * (key + core)


#: name -> (factory, inputs, adversary, sizer, bound), each of a config.
PROTOCOLS = {
    "approximate": (
        lambda config: approximate_factory(rounds=4),
        lambda config: {p: float(p % 3) for p in config.process_ids},
        lambda config, factory: EquivocatingAdversary(
            range(1, config.t + 1), 0.0, 9.0
        ),
        lambda config: None,
        lambda config: DEFAULT_LEAF_BITS,  # one number
    ),
    "early_stopping": (
        lambda config: early_stopping_factory(),
        lambda config: {p: p for p in config.process_ids},
        lambda config, factory: CrashAdversary(
            _crashes(config, first=1), factory, cut_fraction=0.5
        ),
        lambda config: None,
        # At most n values: one input per processor, ever.
        lambda config: DEFAULT_NODE_BITS + config.n * DEFAULT_LEAF_BITS,
    ),
    "turpin_coan": (
        lambda config: turpin_coan_factory(phase_king_factory(), default=0),
        lambda config: {p: p % 3 for p in config.process_ids},
        lambda config, factory: EquivocatingAdversary(
            range(1, config.t + 1), 0, 2
        ),
        lambda config: None,
        lambda config: DEFAULT_LEAF_BITS,  # a value, then Phase King's bit
    ),
    "crash_compact": (
        lambda config: crash_compact_factory(K, (0, 1), config.t),
        lambda config: {p: p % 2 for p in config.process_ids},
        lambda config, factory: CrashAdversary(
            _crashes(config, first=2), factory, cut_fraction=0.5
        ),
        lambda config: crash_sizer(config, 2),
        _crash_compact_bound,
    ),
}


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_round_stays_within_the_stated_bound(name, n):
    build, inputs, adversary, sizer, bound = PROTOCOLS[name]
    config = SystemConfig(n=n, t=(n - 1) // 3)
    factory = build(config)
    result = run_protocol(
        factory,
        config,
        inputs(config),
        adversary=adversary(config, factory),
        max_rounds=20,
        sizer=sizer(config),
        seed=n,
    )
    assert all(
        decision is not None for decision in result.decisions.values()
    )
    per_message = {
        round_number: bits / result.metrics.round_usage(round_number).messages
        for round_number, bits in result.metrics.bits_by_round()
    }
    assert len(per_message) >= 2 and max(per_message.values()) > 0
    assert max(per_message.values()) <= bound(config), per_message
