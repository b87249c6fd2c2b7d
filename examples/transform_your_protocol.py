"""Transform *your own* protocol into the canonical form.

The paper's headline result is not one protocol but a compiler: give
it any synchronous consensus protocol as a system of automata
(Section 3.1) and it emits a communication-efficient protocol with the
same correctness guarantees (Theorem 1).  This example writes a small
custom protocol — "agree on the maximum input any correct processor
can prove was seen by everyone" flavoured as repeated max-gossip with
a majority decision — and runs it through the transformation.

Run:  python examples/transform_your_protocol.py
"""

from repro.adversary import EquivocatingAdversary
from repro.agreement.eig_agreement import ExponentialAgreementAutomaton
from repro.core.automaton import AutomatonProtocol, automaton_factory
from repro.core.transform import canonical_form, full_information_form
from repro.runtime.engine import run_protocol
from repro.types import BOTTOM, SystemConfig


class IteratedMedianProtocol(AutomatonProtocol):
    """Toy consensus: t + 1 rounds of exchanging values, each round
    moving to the median of received values; decide the final value.

    (Median gossip is not a correct Byzantine agreement protocol in
    general — it is here to show the *mechanics* of transforming an
    arbitrary automaton protocol, not to add a new agreement result;
    :class:`repro.agreement.eig_agreement.ExponentialAgreementAutomaton`,
    transformed last, is the real thing.)
    """

    def message(self, sender, receiver, state):
        return state if not isinstance(state, tuple) else state[1]

    def transition(self, process_id, messages):
        legal = sorted(
            message for message in messages if message in self.input_values
        )
        median = legal[len(legal) // 2] if legal else self.input_values[0]
        previous_round = 0
        return (previous_round + 1, median)

    def decision(self, process_id, state):
        if isinstance(state, tuple):
            return state[1]
        return BOTTOM

    @property
    def rounds_to_decide(self):
        return self.config.t + 1


def main() -> None:
    config = SystemConfig(n=7, t=2)
    protocol = IteratedMedianProtocol(config, input_values=list(range(10)))
    inputs = {1: 3, 2: 9, 3: 1, 4: 7, 5: 5, 6: 2, 7: 8}

    print("=== the source protocol, run natively ===")
    native = run_protocol(
        automaton_factory(protocol), config, inputs, max_rounds=config.t + 2
    )
    print(f"  decisions: {dict(sorted(native.decisions.items()))}")
    print(f"  rounds: {native.rounds}")

    print()
    print("=== Theorem 2: the full-information form ===")
    fullinfo = full_information_form(protocol).run(inputs)
    print(f"  decisions: {dict(sorted(fullinfo.decisions.items()))}")
    print(f"  rounds: {fullinfo.rounds}, bits: {fullinfo.metrics.total_bits}")

    print()
    print("=== Theorem 9: the compact canonical form (eps = 1) ===")
    form = canonical_form(protocol, epsilon=1.0)
    compact = form.run(
        inputs, adversary=EquivocatingAdversary([3, 6], 1, 9)
    )
    print(f"  k = {form.k}, deadline = {form.deadline} rounds")
    print(f"  decisions: {dict(sorted(compact.decisions.items()))}")
    print(f"  rounds: {compact.rounds}, bits: {compact.metrics.total_bits}")

    print()
    print(
        "Fault-free, all three agree decision-for-decision (the\n"
        "simulations are exact); under faults the canonical form keeps\n"
        "whatever correctness predicate the source protocol satisfied."
    )
    assert native.decisions == fullinfo.decisions

    print()
    print("=== the real thing: the exponential EIG automaton, compacted ===")
    eig = ExponentialAgreementAutomaton(config, input_values=[0, 1])
    binary = {process_id: value % 2 for process_id, value in inputs.items()}
    agreed = canonical_form(eig, epsilon=1.0).run(
        binary, adversary=EquivocatingAdversary([3, 6], 0, 1)
    )
    print(f"  decisions: {dict(sorted(agreed.decisions.items()))}")
    print(f"  rounds: {agreed.rounds}, bits: {agreed.metrics.total_bits}")
    assert len(set(agreed.decisions.values())) == 1


if __name__ == "__main__":
    main()
