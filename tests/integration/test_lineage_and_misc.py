"""Paper-fidelity details: protocol lineage and multivalued coverage."""

import pytest

from repro.adversary import EquivocatingAdversary, RandomGarbageAdversary
from repro.avalanche.protocol import standard_thresholds
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.types import SystemConfig


class TestBenOrLineage:
    """Section 4: Protocol 2 "incorporates many ideas from previously
    known randomized protocols … Ben-Or [1]".  The lineage is literal:
    the quorums coincide."""

    def test_quorums_coincide(self):
        for t in (1, 2, 3):
            config = SystemConfig(n=3 * t + 1, t=t)
            thresholds = standard_thresholds(config)
            # Ben-Or's proposal quorum is a majority of n + t votes —
            # exactly avalanche's round-1 adoption quorum.
            ben_or_proposal_quorum = (config.n + config.t) // 2 + 1
            assert thresholds.round1_adopt == ben_or_proposal_quorum
            # Ben-Or adopts on t + 1 proposals and decides on 2t + 1 —
            # exactly avalanche's later-round quorums.
            assert thresholds.later_adopt == config.t + 1
            assert thresholds.decide == 2 * config.t + 1


class TestMultivaluedCompact:
    """Corollary 10 is for arbitrary finite V; the binary case is just
    the smallest.  Sweep a 4-letter alphabet."""

    ALPHABET = ["north", "south", "east", "west"]

    @pytest.mark.parametrize("k", [1, 2])
    def test_agreement_over_words(self, config7, k):
        inputs = {
            p: self.ALPHABET[p % 4] for p in config7.process_ids
        }
        for adversary in (
            EquivocatingAdversary([2, 6], "north", "west"),
            RandomGarbageAdversary([2, 6], palette=self.ALPHABET),
        ):
            result = run_compact_byzantine_agreement(
                config7,
                inputs,
                value_alphabet=self.ALPHABET,
                k=k,
                adversary=adversary,
            )
            decided = result.decided_values()
            assert len(decided) == 1
            assert decided <= set(self.ALPHABET)

    def test_unanimity_over_words(self, config7):
        inputs = {p: "east" for p in config7.process_ids}
        result = run_compact_byzantine_agreement(
            config7,
            inputs,
            value_alphabet=self.ALPHABET,
            k=1,
            adversary=EquivocatingAdversary([3, 4], "north", "south"),
        )
        assert result.decided_values() == {"east"}

    def test_bits_scale_with_alphabet_size(self, config4):
        """log |V| shows up in measured traffic: a 16-letter alphabet
        costs more bits than a binary one on the same run shape."""
        small = run_compact_byzantine_agreement(
            config4,
            {p: p % 2 for p in config4.process_ids},
            value_alphabet=[0, 1],
            k=1,
        )
        big_alphabet = [f"w{i}" for i in range(16)]
        big = run_compact_byzantine_agreement(
            config4,
            {p: big_alphabet[p % 2] for p in config4.process_ids},
            value_alphabet=big_alphabet,
            k=1,
        )
        assert big.metrics.total_bits > small.metrics.total_bits


class TestInputsOutsideAlphabetRejected:
    def test_engine_surfaces_configuration_error(self, config4):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_compact_byzantine_agreement(
                config4,
                {p: "zebra" for p in config4.process_ids},
                value_alphabet=[0, 1],
                k=1,
            )
