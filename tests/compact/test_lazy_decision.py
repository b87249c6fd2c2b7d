"""Tests for the polynomial-space lazy decision path."""

import pytest

from repro.adversary import (
    CollusionAdversary,
    EquivocatingAdversary,
    MalformedArrayAdversary,
)
from repro.arrays.store import ArrayStore
from repro.arrays.value_array import count_leaves, leaf_at
from repro.compact.byzantine_agreement import (
    compact_ba_rounds,
    run_compact_byzantine_agreement,
)
from repro.compact.expansion import ExpansionState
from repro.compact.lazy_decision import (
    full_state_leaf,
    lazy_compact_ba_factory,
    lazy_eig_decision,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.errors import ProtocolViolation
from repro.fullinfo.decision import eig_byzantine_decision
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig, is_bottom

from tests.arrays.builders import iter_paths
from tests.conftest import assert_agreement_and_validity, byzantine_adversaries


def run_exposed(config, inputs, k=2, adversary=None, seed=0):
    """One compact BA run keeping its processes for state inspection."""
    return run_compact_byzantine_agreement(
        config,
        inputs,
        value_alphabet=[0, 1],
        k=k,
        adversary=adversary,
        seed=seed,
    )


class TestFullStateLeaf:
    def test_every_leaf_matches_eager_expansion(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_exposed(
            config4, inputs, adversary=EquivocatingAdversary([3], 0, 1)
        )
        for process in result.processes.values():
            eager = process.full_state()
            depth = config4.t + 1
            for path in iter_paths(config4.n, depth):
                lazy = full_state_leaf(
                    process.expansion,
                    process.core_boundary,
                    process.core,
                    path,
                )
                assert lazy == leaf_at(eager, path), path

    def test_short_path_rejected(self, config4):
        expansion = ExpansionState(config4, [0, 1], store=ArrayStore(4))
        core = ((0, 1, 0, 1),) * 4
        with pytest.raises(ProtocolViolation):
            full_state_leaf(expansion, 1, core, (1,))

    def test_long_path_rejected(self, config4):
        expansion = ExpansionState(config4, [0, 1], store=ArrayStore(4))
        with pytest.raises(ProtocolViolation):
            full_state_leaf(expansion, 1, (0, 1, 0, 1), (1, 2))

    def test_missing_out_gives_bottom(self, config4):
        expansion = ExpansionState(config4, [0, 1], store=ArrayStore(4))
        core = (1, 2, 3, 4)  # boundary-2 index array, empty OUT table
        assert is_bottom(full_state_leaf(expansion, 2, core, (1, 1)))

    def test_counter_counts_visits(self, config4):
        expansion = ExpansionState(config4, [0, 1], store=ArrayStore(4))
        counter = [0]
        full_state_leaf(expansion, 1, (0, 1, 0, 1), (2,), _counter=counter)
        assert counter[0] > 0


class TestLazyEqualsEager:
    @pytest.mark.parametrize("strategy_index", range(6))
    def test_same_decision_under_every_adversary(self, config4, strategy_index):
        inputs = {p: p % 2 for p in config4.process_ids}
        adversary = byzantine_adversaries([2])[strategy_index]
        result = run_exposed(config4, inputs, adversary=adversary)
        for process in result.processes.values():
            eager = eig_byzantine_decision(
                process.full_state(),
                config4.n,
                config4.t,
                process.process_id,
                default=0,
                alphabet=[0, 1],
            )
            lazy = lazy_eig_decision(
                process.expansion,
                process.core_boundary,
                process.core,
                n=config4.n,
                t=config4.t,
                default=0,
                alphabet=[0, 1],
            )
            assert lazy == eager


class TestLazyFactoryEndToEnd:
    def test_agreement_and_round_count(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in (
            EquivocatingAdversary([3, 6], 0, 1),
            CollusionAdversary([1, 7]),
            MalformedArrayAdversary([2, 5]),
        ):
            result = run_protocol(
                lazy_compact_ba_factory([0, 1], default=0, k=1),
                config7,
                inputs,
                adversary=adversary,
                max_rounds=compact_ba_rounds(config7.t, 1) + 1,
                sizer=compact_sizer(config7, 2),
                is_null=payload_is_null,
            )
            assert_agreement_and_validity(result, inputs)
            assert result.rounds == compact_ba_rounds(config7.t, 1)

    def test_matches_eager_factory_decisions(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        eager = run_compact_byzantine_agreement(
            config4,
            inputs,
            value_alphabet=[0, 1],
            k=2,
            adversary=EquivocatingAdversary([4], 0, 1),
            seed=3,
        )
        lazy = run_protocol(
            lazy_compact_ba_factory([0, 1], default=0, k=2),
            config4,
            inputs,
            adversary=EquivocatingAdversary([4], 0, 1),
            max_rounds=compact_ba_rounds(config4.t, 2) + 1,
            seed=3,
        )
        assert lazy.decisions == eager.decisions


class TestPolynomialWork:
    def test_lazy_touches_fraction_of_tree(self, config7):
        """The lazy rule reads only distinct-chain leaves: at n = 7,
        t = 2 that is 7*6*5 = 210 leaves out of 7^3 = 343, and node
        visits stay linear in (t + k) per leaf."""
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_exposed(config7, inputs, k=1)
        process = result.processes[1]
        counter = [0]
        lazy_eig_decision(
            process.expansion,
            process.core_boundary,
            process.core,
            n=config7.n,
            t=config7.t,
            default=0,
            alphabet=[0, 1],
            _counter=counter,
        )
        distinct_leaves = 7 * 6 * 5
        eager_nodes = count_leaves(process.full_state())
        # Each lazy leaf costs at most depth + boundary hops.
        assert counter[0] <= distinct_leaves * (config7.t + 1 + 3)
        assert distinct_leaves < eager_nodes
