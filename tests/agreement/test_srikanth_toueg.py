"""Tests for the witnessed-broadcast primitive and ST-style agreement.

The three authenticated-broadcast properties — correctness,
unforgeability, relay — are tested directly against the primitive,
then the agreement layer is swept against adversaries.
"""

import pytest

from repro.adversary import SilentAdversary
from repro.adversary.base import Adversary
from repro.agreement.srikanth_toueg import (
    STAgreementProcess,
    WitnessedBroadcast,
    st_agreement_factory,
    st_agreement_rounds,
    st_sizer,
)
from repro.fuzz.protocols import get_spec
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast as broadcast_all
from repro.types import SystemConfig

from tests.conftest import assert_agreement_and_validity, byzantine_adversaries


class PrimitiveHarness(Process):
    """Runs just the broadcast primitive; processor 1 broadcasts "m"."""

    def __init__(self, process_id, config, input_value):
        super().__init__(process_id, config)
        self.primitive = WitnessedBroadcast(process_id, config)
        if process_id == 1:
            self.primitive.schedule_broadcast("m", 1)
        self.accept_rounds = {}

    def outgoing(self, round_number):
        return broadcast_all(
            self.primitive.outgoing_items(round_number), self.config
        )

    def receive(self, round_number, incoming):
        for key in self.primitive.absorb(round_number, incoming):
            self.accept_rounds[key] = round_number


def primitive_factory(process_id, config, input_value):
    return PrimitiveHarness(process_id, config, input_value)


class ForgeryAdversary(Adversary):
    """Tries to forge a broadcast on behalf of correct processor 1."""

    def outgoing(self, round_number, sender, context):
        items = frozenset(
            {
                ("init", 1, "forged", 1),
                ("echo", 1, "forged", 1),
            }
        )
        return {receiver: items for receiver in self.config.process_ids}


class IllTypedPhaseAdversary(Adversary):
    """Each faulty sender broadcasts a well-shaped init and echo of its
    own source value whose phase is the string ``"1"``: a 4-tuple with
    a known kind and an in-range broadcaster, which a receiver must
    discard rather than do phase arithmetic on."""

    def outgoing(self, round_number, sender, context):
        payload = ("val", sender, 1)
        items = frozenset(
            {("init", sender, payload, "1"), ("echo", sender, payload, "1")}
        )
        return {receiver: items for receiver in self.config.process_ids}


class TestPrimitiveCorrectness:
    def test_correct_broadcast_accepted_in_its_phase(self, config7):
        inputs = {p: 0 for p in config7.process_ids}
        result = run_protocol(
            primitive_factory, config7, inputs, run_full_rounds=2
        )
        for process in result.processes.values():
            assert process.accept_rounds == {(1, "m", 1): 2}

    def test_correct_broadcast_survives_faults(self, config7):
        inputs = {p: 0 for p in config7.process_ids}
        result = run_protocol(
            primitive_factory,
            config7,
            inputs,
            adversary=SilentAdversary([6, 7]),
            run_full_rounds=2,
        )
        for process in result.processes.values():
            assert (1, "m", 1) in process.accept_rounds


class TestPrimitiveUnforgeability:
    def test_forgery_never_accepted(self, config7):
        """Processor 1 is correct and broadcast "m"; the adversary
        pushes inits and echoes for a different payload."""
        inputs = {p: 0 for p in config7.process_ids}
        result = run_protocol(
            primitive_factory,
            config7,
            inputs,
            adversary=ForgeryAdversary([6, 7]),
            run_full_rounds=6,
        )
        for process in result.processes.values():
            assert (1, "forged", 1) not in process.accept_rounds

    def test_inits_from_wrong_sender_ignored(self, config7):
        """An init claiming broadcaster 1 but sent by 6 is discarded."""
        inputs = {p: 0 for p in config7.process_ids}

        class WrongSender(Adversary):
            def outgoing(self, round_number, sender, context):
                items = frozenset({("init", 1, "spoof", 1)})
                return {r: items for r in self.config.process_ids}

        result = run_protocol(
            primitive_factory,
            config7,
            inputs,
            adversary=WrongSender([6, 7]),
            run_full_rounds=4,
        )
        for process in result.processes.values():
            assert (1, "spoof", 1) not in process.accept_rounds


class TestPrimitiveRelay:
    def test_acceptances_within_one_round_of_each_other(self, config7):
        """Even when the faulty broadcaster feeds half the system, any
        acceptance is followed by everyone else's within a round."""

        class HalfInit(Adversary):
            def outgoing(self, round_number, sender, context):
                if round_number != 1 or sender != 6:
                    return {}
                items = frozenset(
                    {("init", 6, "half", 1), ("echo", 6, "half", 1)}
                )
                return {r: items for r in (1, 2, 3)}

        inputs = {p: 0 for p in config7.process_ids}
        result = run_protocol(
            primitive_factory,
            config7,
            inputs,
            adversary=HalfInit([6]),
            run_full_rounds=6,
        )
        accept_rounds = [
            process.accept_rounds.get((6, "half", 1))
            for process in result.processes.values()
        ]
        decided = [r for r in accept_rounds if r is not None]
        if decided:
            assert None not in accept_rounds
            assert max(decided) - min(decided) <= 1


class TestSTAgreement:
    @pytest.mark.parametrize("pattern", [0, 1])
    @pytest.mark.parametrize("faulty", [(1, 2), (4, 7)])
    def test_sweep(self, config7, pattern, faulty):
        inputs = {p: (p + pattern) % 2 for p in config7.process_ids}
        for adversary in [
            *byzantine_adversaries(list(faulty)),
            IllTypedPhaseAdversary(list(faulty)),
        ]:
            result = run_protocol(
                st_agreement_factory(),
                config7,
                inputs,
                adversary=adversary,
                max_rounds=st_agreement_rounds(config7.t) + 1,
            )
            assert_agreement_and_validity(result, inputs)

    def test_round_count(self, config7):
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_protocol(
            st_agreement_factory(),
            config7,
            inputs,
            max_rounds=st_agreement_rounds(config7.t) + 1,
        )
        assert result.rounds == 2 * (config7.t + 1)

    def test_polynomial_bits_growth_shape(self):
        """ST traffic grows polynomially: its t->t+1 growth factor is
        far below the exponential baseline's (at small scale constants
        can make ST cost *more* in absolute bits — the paper's claim is
        about growth, and the crossover bench covers where the curves
        meet)."""
        from repro.analysis.complexity import eig_total_bits

        measured = {}
        for t in (1, 2):
            config = SystemConfig(n=3 * t + 1, t=t)
            inputs = {p: p % 2 for p in config.process_ids}
            result = run_protocol(
                st_agreement_factory(),
                config,
                inputs,
                max_rounds=st_agreement_rounds(t) + 1,
                sizer=st_sizer(config, 2),
            )
            measured[t] = result.metrics.total_bits
        st_ratio = measured[2] / measured[1]
        eig_ratio = eig_total_bits(10, 3, 2) / eig_total_bits(7, 2, 2)
        assert st_ratio < eig_ratio / 2

    def test_multivalued(self, config7):
        inputs = {p: ["x", "y", "z"][p % 3] for p in config7.process_ids}
        result = run_protocol(
            st_agreement_factory(default="x"),
            config7,
            inputs,
            max_rounds=st_agreement_rounds(config7.t) + 1,
        )
        assert len(result.decided_values()) == 1


class EveryRoundST(STAgreementProcess):
    """The agreement broadcasting its item set even when it is empty,
    as it did before a round with nothing to send went quiet."""

    def outgoing(self, round_number):
        items = self.primitive.outgoing_items(round_number)
        return broadcast_all(items, self.config)


class TestQuietRounds:
    """A correct processor with nothing to init or echo sends nothing:
    receivers read the omission as BOTTOM, exactly what they skip."""

    def test_rounds_with_nothing_to_send_carry_no_message(self, config7):
        spec = get_spec("srikanth-toueg")
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_protocol(
            spec.build(config7), config7, inputs,
            **spec.engine_arguments(config7),
        )
        non_null = [
            result.metrics.round_usage(r).non_null_messages
            for r in range(1, result.rounds + 1)
        ]
        assert non_null == [49, 49, 49, 0, 0, 0]

    @pytest.mark.parametrize("faulty", [(1, 2), (4, 7)])
    def test_decisions_unchanged_under_the_gallery(self, config7, faulty):
        inputs = {p: p % 2 for p in config7.process_ids}
        rounds = st_agreement_rounds(config7.t) + 1
        for quiet_adversary, loud_adversary in zip(
            byzantine_adversaries(list(faulty)),
            byzantine_adversaries(list(faulty)),
        ):
            quiet = run_protocol(
                st_agreement_factory(), config7, inputs,
                adversary=quiet_adversary, max_rounds=rounds, seed=2,
            )
            loud = run_protocol(
                EveryRoundST, config7, inputs,
                adversary=loud_adversary, max_rounds=rounds, seed=2,
            )
            assert quiet.decisions == loud.decisions
            assert quiet.decision_rounds == loud.decision_rounds
