"""Tests for the signature oracle and Dolev–Strong agreement."""

import functools

import pytest

from repro.adversary import SilentAdversary
from repro.adversary.base import Adversary
from repro.agreement.dolev_strong import (
    DolevStrongProcess,
    dolev_strong_factory,
    dolev_strong_rounds,
)
from repro.agreement.srikanth_toueg import st_agreement_rounds
from repro.errors import AdversaryError, ConfigurationError
from repro.fuzz.protocols import get_spec
from repro.runtime.crypto import Signature, SignatureOracle
from repro.runtime.engine import run_protocol
from repro.runtime.node import broadcast
from repro.types import SystemConfig

from tests.conftest import assert_agreement_and_validity, byzantine_adversaries


class TestSignatureOracle:
    def test_issued_signatures_verify(self):
        oracle = SignatureOracle()
        signature = oracle.sign(3, "payload")
        assert oracle.verify(signature, 3, "payload")

    def test_wrong_signer_or_payload_fails(self):
        oracle = SignatureOracle()
        signature = oracle.sign(3, "payload")
        assert not oracle.verify(signature, 4, "payload")
        assert not oracle.verify(signature, 3, "other")

    def test_fabricated_lookalike_fails(self):
        """A Byzantine strategy building its own Signature object
        cannot pass verification — the token was never issued."""
        oracle = SignatureOracle()
        oracle.sign(3, "payload")
        forged = Signature(3, "payload")
        assert not oracle.verify(forged, 3, "payload")

    def test_non_signature_objects_fail(self):
        oracle = SignatureOracle()
        assert not oracle.verify("junk", 1, "payload")
        assert not oracle.verify(None, 1, "payload")

    def test_restricted_handle(self):
        oracle = SignatureOracle()
        handle = oracle.handle_for([6, 7])
        signature = handle.sign(6, "x")
        assert handle.verify(signature, 6, "x")
        with pytest.raises(AdversaryError):
            handle.sign(1, "x")


class EquivocatingSigner(Adversary):
    """Signs two different values as itself — the authenticated-model
    equivocation — and sends each half of the system a different one."""

    def __init__(self, faulty_ids, oracle):
        super().__init__(faulty_ids)
        self._handle = oracle.handle_for(faulty_ids)

    def outgoing(self, round_number, sender, context):
        if round_number != 1:
            return {}
        messages = {}
        for receiver in self.config.process_ids:
            value = receiver % 2
            signature = self._handle.sign(sender, ("ds", sender, value))
            messages[receiver] = (("claim", sender, value, (signature,)),)
        return messages


class ForgingAdversary(Adversary):
    """Fabricates signature objects for a *correct* processor."""

    def outgoing(self, round_number, sender, context):
        forged = Signature(1, ("ds", 1, "forged-value"))
        claim = ("claim", 1, "forged-value", (forged,))
        return {
            receiver: (claim,) for receiver in self.config.process_ids
        }


class TestDolevStrong:
    def run(self, config, inputs, oracle, adversary=None, seed=0):
        return run_protocol(
            dolev_strong_factory(oracle),
            config,
            inputs,
            adversary=adversary,
            max_rounds=dolev_strong_rounds(config.t) + 1,
            seed=seed,
        )

    def test_fault_free(self, config4):
        oracle = SignatureOracle()
        inputs = {1: 1, 2: 0, 3: 1, 4: 1}
        result = self.run(config4, inputs, oracle)
        assert result.decided_values() == {1}
        assert result.rounds == config4.t + 1

    def test_works_below_3t_plus_1(self):
        """The authenticated model's power: n = 5, t = 2 (< 3t + 1)."""
        config = SystemConfig(n=5, t=2)
        oracle = SignatureOracle()
        inputs = {p: 1 for p in config.process_ids}
        result = self.run(
            config, inputs, oracle, adversary=SilentAdversary([4, 5])
        )
        assert result.decided_values() == {1}

    def test_equivocating_signer(self, config7):
        oracle = SignatureOracle()
        inputs = {p: p % 2 for p in config7.process_ids}
        result = self.run(
            config7,
            inputs,
            oracle,
            adversary=EquivocatingSigner([3, 6], oracle),
        )
        assert_agreement_and_validity(result, inputs)

    def test_forged_signatures_rejected(self, config7):
        oracle = SignatureOracle()
        inputs = {p: 1 for p in config7.process_ids}
        result = self.run(
            config7, inputs, oracle, adversary=ForgingAdversary([2, 5])
        )
        # Unanimity must survive; the forged source-1 value must not
        # contaminate anyone's extraction for source 1.
        assert result.decided_values() == {1}
        for process in result.processes.values():
            assert ("forged-value" not in
                    {v for _, v in process.snapshot()["extracted"]})

    def test_requires_correct_majority(self):
        with pytest.raises(ConfigurationError):
            run_protocol(
                dolev_strong_factory(SignatureOracle()),
                SystemConfig(n=4, t=2),
                {p: 0 for p in range(1, 5)},
                max_rounds=4,
            )


class TestSimulationRelationship:
    def test_st_costs_twice_the_rounds(self):
        """[18]'s theorem in numbers: removing signatures doubles the
        round count of the t + 1-round authenticated protocol."""
        for t in (1, 2, 3):
            assert st_agreement_rounds(t) == 2 * dolev_strong_rounds(t)

    def test_same_decisions_on_common_scenario(self, config7):
        """Both protocols solve the same problem: identical correct
        decisions on a fault-free mixed-input run."""
        from repro.agreement.srikanth_toueg import st_agreement_factory

        inputs = {p: p % 2 for p in config7.process_ids}
        oracle = SignatureOracle()
        authenticated = run_protocol(
            dolev_strong_factory(oracle),
            config7,
            inputs,
            max_rounds=dolev_strong_rounds(config7.t) + 1,
        )
        simulated = run_protocol(
            st_agreement_factory(),
            config7,
            inputs,
            max_rounds=st_agreement_rounds(config7.t) + 1,
        )
        assert len(authenticated.decided_values()) == 1
        assert authenticated.decided_values() == simulated.decided_values()


class EveryRoundDolevStrong(DolevStrongProcess):
    """Dolev–Strong broadcasting its relay tuple even when it is empty,
    as it did before a round with nothing to relay went quiet."""

    def outgoing(self, round_number):
        items, self._outbox = self._outbox, []
        return broadcast(tuple(items), self.config)


class TestQuietRounds:
    """A correct processor with nothing to relay sends nothing:
    receivers read the omission as BOTTOM, which carries no claim."""

    def test_rounds_with_nothing_to_relay_carry_no_message(self, config7):
        spec = get_spec("dolev-strong")
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_protocol(
            spec.build(config7), config7, inputs,
            **spec.engine_arguments(config7),
        )
        non_null = [
            result.metrics.round_usage(r).non_null_messages
            for r in range(1, result.rounds + 1)
        ]
        assert non_null == [49, 49, 0]

    @pytest.mark.parametrize("faulty", [(1, 2), (4, 7)])
    def test_decisions_unchanged_under_the_gallery(self, config7, faulty):
        inputs = {p: p % 2 for p in config7.process_ids}
        rounds = dolev_strong_rounds(config7.t) + 1
        for quiet_adversary, loud_adversary in zip(
            byzantine_adversaries(list(faulty)),
            byzantine_adversaries(list(faulty)),
        ):
            quiet = run_protocol(
                dolev_strong_factory(SignatureOracle()), config7, inputs,
                adversary=quiet_adversary, max_rounds=rounds, seed=2,
            )
            loud = run_protocol(
                functools.partial(EveryRoundDolevStrong, oracle=SignatureOracle()),
                config7, inputs,
                adversary=loud_adversary, max_rounds=rounds, seed=2,
            )
            assert quiet.decisions == loud.decisions
            assert quiet.decision_rounds == loud.decision_rounds
