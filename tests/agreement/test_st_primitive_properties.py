"""Property-based robustness tests for the witnessed-broadcast layer.

The primitive must shrug off arbitrary garbage: random item soups from
Byzantine senders can never crash a correct processor, never forge an
acceptance for a correct non-broadcaster, and never break the relay
window.
"""

from hypothesis import given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.agreement.srikanth_toueg import WitnessedBroadcast
from repro.runtime.engine import run_protocol
from repro.runtime.node import Process, broadcast
from repro.types import SystemConfig


def garbage_items():
    """Random, frequently malformed, wire items."""
    scalar = st.one_of(
        st.integers(-3, 9),
        st.text(max_size=3),
        st.booleans(),
        st.none(),
    )
    item = st.one_of(
        st.tuples(
            st.sampled_from(["init", "echo", "junk"]),
            st.integers(-1, 9),
            scalar,
            st.integers(-1, 4),
        ),
        st.tuples(scalar),
        scalar,
    )
    return st.frozensets(item, max_size=6)


class PrimitiveHarness(Process):
    def __init__(self, process_id, config, input_value):
        super().__init__(process_id, config)
        self.primitive = WitnessedBroadcast(process_id, config)
        if process_id == 1:
            self.primitive.schedule_broadcast("m", 1)

    def outgoing(self, round_number):
        return broadcast(
            self.primitive.outgoing_items(round_number), self.config
        )

    def receive(self, round_number, incoming):
        self.primitive.absorb(round_number, incoming)


class GarbageItemAdversary(Adversary):
    def __init__(self, faulty_ids, payloads):
        super().__init__(faulty_ids)
        self._payloads = payloads

    def outgoing(self, round_number, sender, context):
        index = (round_number + sender) % len(self._payloads)
        return {
            receiver: self._payloads[index]
            for receiver in self.config.process_ids
        }


@settings(max_examples=30, deadline=None)
@given(payloads=st.lists(garbage_items(), min_size=1, max_size=4))
def test_garbage_never_crashes_or_forges(payloads):
    config = SystemConfig(n=7, t=2)
    inputs = {p: 0 for p in config.process_ids}
    result = run_protocol(
        lambda p, c, v: PrimitiveHarness(p, c, v),
        config,
        inputs,
        adversary=GarbageItemAdversary([6, 7], payloads),
        run_full_rounds=4,
    )
    for process in result.processes.values():
        accepted = process.primitive.accepted
        # The genuine broadcast is accepted on time...
        assert (1, "m", 1) in accepted
        # ...and nothing is ever accepted on behalf of the correct
        # non-broadcasters 2..5 (unforgeability against garbage).
        for key in accepted:
            broadcaster = key[0]
            assert broadcaster in (1, 6, 7), key


@settings(max_examples=20, deadline=None)
@given(
    payloads=st.lists(garbage_items(), min_size=1, max_size=3),
    seed=st.integers(0, 3),
)
def test_relay_window_under_garbage(payloads, seed):
    """Whatever is accepted anywhere is accepted everywhere within one
    round (the relay property), even for adversary-owned instances."""
    config = SystemConfig(n=7, t=2)
    inputs = {p: 0 for p in config.process_ids}
    result = run_protocol(
        lambda p, c, v: PrimitiveHarness(p, c, v),
        config,
        inputs,
        adversary=GarbageItemAdversary([6, 7], payloads),
        run_full_rounds=5,
        seed=seed,
    )
    processes = list(result.processes.values())
    all_keys = set()
    for process in processes:
        all_keys |= set(process.primitive.accepted)
    for key in all_keys:
        rounds = [
            process.primitive.accepted.get(key) for process in processes
        ]
        decided = [r for r in rounds if r is not None and r <= 4]
        if decided:
            # anyone accepting by round 4 drags everyone in by +1
            assert all(r is not None for r in rounds)
            assert max(r for r in rounds) - min(decided) <= 1
