"""The benign variant detects when its fault model is violated.

The crash variant's safety rests on "no equivocation".  Run it against
a *Byzantine* equivocator and its binding-consistency guard must trip
(raising :class:`ProtocolViolation`) rather than silently producing an
inconsistent simulation — fail loudly, never wrongly.
"""

import pytest

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.adversary.base import Adversary
from repro.compact.crash_variant import CrashPayload, crash_compact_factory
from repro.errors import ProtocolViolation
from repro.runtime.engine import run_protocol
from tests.conftest import nested_tuple

ALPHABET = [0, 1, 2]


class EquivocatingPatcher(Adversary):
    """Byzantine behaviour in benign clothing: sends *different*
    end-of-block cores (as patches) to different receivers for the
    same binding key — impossible for a genuine crash fault."""

    def outgoing(self, round_number, sender, context):
        n = self.config.n
        messages = {}
        for receiver in self.config.process_ids:
            fake_core = tuple(receiver % 3 for _ in range(n))
            messages[receiver] = CrashPayload(
                main=fake_core,
                patches=(((2, sender), fake_core),),
            )
        return messages


class DeepPatcher(Adversary):
    """Ships a 5000-deep array as its CORE and as a patch for a correct
    processor's binding: nothing may walk, hash or compare it."""

    def outgoing(self, round_number, sender, context):
        deep = nested_tuple(self.config.n)
        payload = CrashPayload(main=deep, patches=(((2, 1), deep),))
        return {receiver: payload for receiver in self.config.process_ids}


class TestModelGuard:
    def test_equivocating_patches_detected(self, config7):
        inputs = {p: p % 3 for p in config7.process_ids}
        factory = crash_compact_factory(
            k=1, value_alphabet=ALPHABET, t=config7.t
        )
        # Receivers compare binding copies across rounds/sources; the
        # equivocated patch for one key must eventually collide with a
        # genuine copy or another receiver's relay.
        with pytest.raises(ProtocolViolation):
            run_protocol(
                factory,
                config7,
                inputs,
                adversary=EquivocatingPatcher([6, 7]),
                max_rounds=config7.t + 2,
            )

    @pytest.mark.parametrize("k", [1, 2])
    def test_deep_payload_is_just_an_unusable_message(self, config7, k):
        """Shape first, depth-bounded: the senders read as crashed and
        no binding is learned from them.  (Unmetered: sizing a deep
        *plain* array is ``MessageSizer``'s walk, not this variant's.)"""
        inputs = {p: p % 3 for p in config7.process_ids}
        result = run_protocol(
            crash_compact_factory(k=k, value_alphabet=ALPHABET, t=config7.t),
            config7,
            inputs,
            adversary=DeepPatcher([6, 7]),
            max_rounds=config7.t + 2,
        )
        assert len(result.decided_values()) == 1
        assert result.rounds == config7.t + 1
        for process in result.processes.values():
            for boundary in range(2, config7.t + 2):
                assert not process.expansion.has((boundary, 6))
                assert not process.expansion.has((boundary, 7))

    def test_silence_is_a_legal_benign_behaviour(self, config7):
        """Silence is valid in the crash model: no guard trips."""
        inputs = {p: p % 3 for p in config7.process_ids}
        factory = crash_compact_factory(
            k=1, value_alphabet=ALPHABET, t=config7.t
        )
        result = run_protocol(
            factory,
            config7,
            inputs,
            adversary=SilentAdversary([6, 7]),
            max_rounds=config7.t + 2,
        )
        assert len(result.decided_values()) == 1

    def test_scalar_equivocation_on_values_detected_or_survived(self, config7):
        """A plain value equivocator may or may not collide with the
        binding guard (depends on timing); the execution must either
        trip the guard or still reach agreement — never disagree
        silently."""
        inputs = {p: p % 3 for p in config7.process_ids}
        factory = crash_compact_factory(
            k=2, value_alphabet=ALPHABET, t=config7.t
        )
        try:
            result = run_protocol(
                factory,
                config7,
                inputs,
                adversary=EquivocatingAdversary([6, 7], 0, 1),
                max_rounds=config7.t + 2,
            )
        except ProtocolViolation:
            return  # loud failure: acceptable and intended
        assert len(result.decided_values()) == 1
