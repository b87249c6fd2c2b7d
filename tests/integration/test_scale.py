"""Scale smoke tests: the largest configurations the suite runs.

The paper's protocols are proved for all n; these tests push the
implementation past the toy sizes used elsewhere.  The largest EIG
decision the suite computes is n = 16, t = 5: 5,765,760 distinct relay
chains, swept on the dense path over hash-consed arrays and closed-form
chain tables (``repro.arrays.flat.ChainTopology``).  n = 13, t = 4
(154,440 chains) also runs on the polynomial-space lazy path.
"""

import pytest

from repro.adversary import CollusionAdversary, EquivocatingAdversary
from repro.compact.byzantine_agreement import (
    compact_ba_rounds,
    run_compact_byzantine_agreement,
)
from repro.compact.lazy_decision import lazy_compact_ba_factory
from repro.runtime.engine import run_protocol
from repro.types import SystemConfig

from tests.conftest import assert_agreement_and_validity


class TestNTen:
    def test_compact_ba_n10_t3(self):
        config = SystemConfig(n=10, t=3)
        inputs = {p: p % 2 for p in config.process_ids}
        result = run_compact_byzantine_agreement(
            config,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=EquivocatingAdversary([1, 2, 3], 0, 1),
        )
        assert_agreement_and_validity(result, inputs)
        assert result.rounds == compact_ba_rounds(3, 1)

    def test_compact_ba_n10_collusion_k2(self):
        config = SystemConfig(n=10, t=3)
        inputs = {p: p % 2 for p in config.process_ids}
        result = run_compact_byzantine_agreement(
            config,
            inputs,
            value_alphabet=[0, 1],
            k=2,
            adversary=CollusionAdversary([4, 5, 6]),
        )
        assert_agreement_and_validity(result, inputs)

    def test_lazy_equals_eager_n10(self):
        config = SystemConfig(n=10, t=3)
        inputs = {p: p % 2 for p in config.process_ids}
        eager = run_compact_byzantine_agreement(
            config,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=EquivocatingAdversary([8, 9, 10], 0, 1),
            seed=7,
        )
        lazy = run_protocol(
            lazy_compact_ba_factory([0, 1], default=0, k=1),
            config,
            inputs,
            adversary=EquivocatingAdversary([8, 9, 10], 0, 1),
            max_rounds=compact_ba_rounds(3, 1) + 1,
            seed=7,
        )
        assert lazy.decisions == eager.decisions


class TestNThirteen:
    def test_compact_ba_n13_t4_lazy(self):
        """t = 4 over 13 processors on the polynomial-space path, which
        keeps no full-information array at all (the dense path, whose
        arrays are shared DAGs, decides the same run in well under a
        second)."""
        config = SystemConfig(n=13, t=4)
        inputs = {p: p % 2 for p in config.process_ids}
        result = run_protocol(
            lazy_compact_ba_factory([0, 1], default=0, k=1),
            config,
            inputs,
            adversary=EquivocatingAdversary([1, 2, 3, 4], 0, 1),
            max_rounds=compact_ba_rounds(4, 1) + 1,
        )
        assert_agreement_and_validity(result, inputs)
        assert result.rounds == compact_ba_rounds(4, 1) == 13


class TestNSixteen:
    def test_compact_ba_n16_t5_dense(self):
        """t = 5 over 16 processors: each decision sweeps 5,765,760
        chains, so the chain tables' build cost shows here — about a
        second and 300 MB when built in closed form, against tens of
        seconds and 1.5 GB for a tuple enumeration of the chains."""
        config = SystemConfig(n=16, t=5)
        inputs = {p: p % 2 for p in config.process_ids}
        result = run_compact_byzantine_agreement(
            config,
            inputs,
            value_alphabet=[0, 1],
            k=1,
            adversary=EquivocatingAdversary([1, 2, 3, 4, 5], 0, 1),
        )
        assert_agreement_and_validity(result, inputs)
        assert result.rounds == compact_ba_rounds(5, 1) == 16
