"""Tests for the authenticated compact variant (zero overhead rounds).

The extension's claims: Byzantine agreement in exactly ``t + 1``
rounds (no `(1 + eps)` inflation) under full Byzantine behaviour, with
polynomial traffic, as long as signatures are unforgeable.  Includes a
signing adversary that equivocates *with valid signatures* — the
attack the content-addressing exists for.
"""

import pytest

from repro.adversary import SilentAdversary
from repro.adversary.base import Adversary
from repro.compact.authenticated_variant import (
    AuthCompactProcess,
    auth_compact_ba_factory,
    auth_sizer,
    digest_of,
)
from repro.errors import ConfigurationError
from repro.runtime.crypto import SignatureOracle
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig

from tests.conftest import assert_agreement_and_validity, nested_tuple


def run_auth(config, inputs, k, oracle=None, adversary=None, seed=0,
             with_sizer=False):
    oracle = oracle or SignatureOracle()
    factory = auth_compact_ba_factory(config, [0, 1], oracle, k=k)
    return run_protocol(
        factory,
        config,
        inputs,
        adversary=adversary,
        max_rounds=config.t + 2,
        seed=seed,
        sizer=auth_sizer(config, 2) if with_sizer else None,
    )


class SigningEquivocator(Adversary):
    """Signs *two different* phase-1 COREs per block and shows each
    half of the system a different one — valid signatures throughout.
    Content addressing must keep the interpretations consistent."""

    def __init__(self, faulty_ids, oracle, k):
        super().__init__(faulty_ids)
        self._handle = oracle.handle_for(faulty_ids)
        self._k = k

    def outgoing(self, round_number, sender, context):
        phase = (round_number - 1) % self._k + 1
        block = (round_number - 1) // self._k + 1
        correct = sorted(context.correct_senders())
        if not correct:
            return {}
        messages = {}
        if phase == 1 and round_number > 1:
            # Steal two different correct processors' mains, re-sign
            # their contents as our own, split the audience.
            donors = (correct[0], correct[-1])
            for receiver in self.config.process_ids:
                donor = donors[receiver % 2]
                donor_payload = context.correct_message(donor, receiver)
                if not isinstance(donor_payload, dict):
                    continue
                main = donor_payload.get("main")
                if not (isinstance(main, tuple) and main[0] == "signed"):
                    continue
                core = main[1]
                signature = self._handle.sign(
                    sender, ("auth-core", block, digest_of(core))
                )
                messages[receiver] = {
                    "main": ("signed", core, signature),
                    "patches": donor_payload.get("patches", ()),
                }
        else:
            for receiver in self.config.process_ids:
                donor = correct[receiver % len(correct)]
                payload = context.correct_message(donor, receiver)
                if isinstance(payload, dict):
                    messages[receiver] = payload
        return messages


class ForgingEquivocator(Adversary):
    """Tries to attribute a fabricated CORE to a *correct* processor
    by shipping a certificate with a home-made 'signature'."""

    def outgoing(self, round_number, sender, context):
        n = self.config.n
        fake_core = tuple(0 for _ in range(n))
        forged = ("cert", 1, 2, fake_core, "not-a-signature")
        payload = {"main": BOTTOM, "patches": (forged,)}
        return {receiver: payload for receiver in self.config.process_ids}


class DeepCoreAdversary(Adversary):
    """Ships a 5000-deep ``core`` attributed to correct processor 1,
    both as a certificate patch and as a signed main component."""

    def outgoing(self, round_number, sender, context):
        deep = nested_tuple(self.config.n)
        payload = {
            "main": ("signed", deep, "not-a-signature"),
            "patches": (("cert", 1, 2, deep, "not-a-signature"),),
        }
        return {receiver: payload for receiver in self.config.process_ids}


class TestZeroOverheadRounds:
    @pytest.mark.parametrize("k", [1, 2])
    def test_decides_in_exactly_t_plus_one_rounds(self, config7, k):
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_auth(
            config7, inputs, k=k, adversary=SilentAdversary([3, 6])
        )
        assert result.rounds == config7.t + 1
        assert_agreement_and_validity(result, inputs)

    def test_matches_lower_bound_unlike_nonauth_compact(self, config7):
        """t + 1 exactly — the non-cryptographic compact protocol needs
        (1 + eps)(t + 1) for any k < t + 1."""
        from repro.compact.byzantine_agreement import compact_ba_rounds

        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_auth(config7, inputs, k=1)
        assert result.rounds == config7.t + 1 < compact_ba_rounds(config7.t, 1)


class TestByzantineResilience:
    @pytest.mark.parametrize("k", [1, 2])
    def test_signing_equivocator(self, config7, k):
        oracle = SignatureOracle()
        inputs = {p: p % 2 for p in config7.process_ids}
        adversary = SigningEquivocator([3, 6], oracle, k)
        result = run_auth(
            config7, inputs, k=k, oracle=oracle, adversary=adversary
        )
        assert_agreement_and_validity(result, inputs)
        assert result.rounds == config7.t + 1

    def test_forged_certificates_rejected(self, config7):
        inputs = {p: 1 for p in config7.process_ids}
        result = run_auth(
            config7, inputs, k=2, adversary=ForgingEquivocator([2, 5])
        )
        assert result.decided_values() == {1}
        # Nobody learned the forged binding for correct processor 1.
        fake_core = tuple(0 for _ in range(config7.n))
        for process in result.processes.values():
            assert not process.expansion.has((2, 1, digest_of(fake_core)))

    @pytest.mark.parametrize("k", [1, 2])
    def test_deep_core_rejected_before_anything_walks_it(self, config7, k):
        """The depth-bounded shape test comes first: hashing or
        comparing the payload would raise ``RecursionError`` out of
        every correct processor's ``receive``."""
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_auth(
            config7, inputs, k=k, adversary=DeepCoreAdversary([2, 5])
        )
        assert_agreement_and_validity(result, inputs)
        assert result.rounds == config7.t + 1
        # Nobody learned a binding from the attackers: every reference
        # in use is to a correct processor's CORE, one per block.
        for process in result.processes.values():
            used = [key[:2] for key in process.expansion.touched]
            assert len(used) == len(set(used))
            assert not {owner for _, owner in used} & {2, 5}

    def test_generic_gallery(self, config7):
        from tests.conftest import byzantine_adversaries

        inputs = {p: p % 2 for p in config7.process_ids}
        for adversary in byzantine_adversaries([2, 6]):
            result = run_auth(config7, inputs, k=1, adversary=adversary)
            assert_agreement_and_validity(result, inputs)


class TestCommunication:
    def test_polynomial_traffic(self, config7):
        """Metered bits stay within an explicit polynomial budget."""
        inputs = {p: p % 2 for p in config7.process_ids}
        result = run_auth(
            config7,
            inputs,
            k=1,
            adversary=SilentAdversary([3, 6]),
            with_sizer=True,
        )
        n, t = config7.n, config7.t
        # cores + certs: generous explicit budget, far below n^(t+1).
        budget = (t + 1) * n * n * (n * n + n) * (n * 16 + 64 + 64)
        assert 0 < result.metrics.total_bits <= budget


class TestSizerFailsClosed:
    """``patches`` is a field a Byzantine sender controls: a malformed
    field or entry is no certificate — 0 bits, never an exception."""

    @pytest.mark.parametrize(
        "patches", [None, 5, (1, 2), ("cert",), (("cert", 1, 2),), [()]]
    )
    def test_malformed_patches_cost_nothing(self, config7, patches):
        measure = auth_sizer(config7, 2)
        assert measure({"main": 0, "patches": patches}) == measure({"main": 0})

    def test_malformed_certificates_are_no_certificates(self, config7):
        measure = auth_sizer(config7, 2)
        core = tuple(0 for _ in range(config7.n))
        good = ("cert", 1, 2, core, "s")
        for bad in (
            ("tag", 1, 2, core, "s"),
            ("cert", 99, 2, core, "s"),
            ("cert", True, 2, core, "s"),
            ("cert", 1, 1, core, "s"),
            ("cert", 1, "2", core, "s"),
        ):
            assert measure({"main": 0, "patches": (good, bad)}) == measure(
                {"main": 0, "patches": (good,)}
            )
        assert measure({"main": 0, "patches": (good,)}) > measure({"main": 0})


class TestConstruction:
    def test_requires_3t_plus_1_for_the_decision_rule(self):
        with pytest.raises(ConfigurationError):
            auth_compact_ba_factory(
                SystemConfig(n=6, t=2), [0, 1], SignatureOracle(), k=1
            )

    def test_input_validation(self, config7):
        with pytest.raises(ConfigurationError):
            AuthCompactProcess(
                1, config7, "zebra", k=1, value_alphabet=[0, 1],
                oracle=SignatureOracle(),
            )
