"""Tests for the execution renderers."""

import pytest

from repro.adversary import EquivocatingAdversary, SilentAdversary
from repro.avalanche.protocol import avalanche_factory
from repro.compact.byzantine_agreement import run_compact_byzantine_agreement
from repro.runtime.engine import run_protocol
from repro.runtime.render import (
    render_decisions,
    render_execution,
    render_round,
    summarise_payload,
)
from repro.types import BOTTOM


@pytest.fixture
def traced_result(config4):
    inputs = {p: "v" for p in config4.process_ids}
    return run_protocol(
        avalanche_factory(),
        config4,
        inputs,
        adversary=SilentAdversary([3]),
        run_full_rounds=3,
        record_trace=True,
    )


class TestSummarise:
    def test_bottom(self):
        assert summarise_payload(BOTTOM) == "-"

    def test_scalars(self):
        assert summarise_payload("v") == "'v'"
        assert summarise_payload(7) == "7"

    def test_default_repr_objects_show_only_their_type(self):
        # repr(object()) carries an address: never in a summary.
        assert summarise_payload(object()) == "<object>"

    def test_arrays_show_shape(self):
        assert summarise_payload(((1, 2), (3, 4))) == "array[d2 w2]"

    def test_compact_payload(self, config4):
        from repro.compact.payload import CompactPayload

        payload = CompactPayload(main=(1, 2, 3, 4), votes=((2, (1, 1, 1, 1)),))
        assert "core:array[d1 w4]" in summarise_payload(payload, limit=60)
        assert "votes:1" in summarise_payload(payload, limit=60)

    def test_malformed_votes_field_is_not_counted(self):
        from repro.compact.payload import CompactPayload

        payload = CompactPayload(main=(), votes=7)
        assert summarise_payload(payload, limit=60) == (
            "core:array[d0 w0] votes:?"
        )

    def test_malformed_patches_field_is_not_counted(self):
        from repro.compact.crash_variant import CrashPayload

        payload = CrashPayload(main=(), patches=None)
        assert summarise_payload(payload, limit=60) == (
            "core:array[d0 w0] patches:?"
        )

    def test_truncation(self):
        long_string = "x" * 100
        assert len(summarise_payload(long_string)) <= 28


class TestRenderRound:
    def test_matrix_structure(self, traced_result):
        text = render_round(traced_result, 1)
        lines = text.splitlines()
        assert lines[0] == "round 1"
        assert "snd\\rcv" in lines[1]
        assert len(lines) == 2 + traced_result.config.n

    def test_faulty_sender_marked(self, traced_result):
        text = render_round(traced_result, 1)
        row3 = next(line for line in text.splitlines() if line.startswith("3"))
        assert row3.startswith("3x")

    def test_silent_sender_shows_dashes(self, traced_result):
        row3 = next(
            line
            for line in render_round(traced_result, 1).splitlines()
            if line.startswith("3x")
        )
        assert "-" in row3

    def test_requires_trace(self, config4):
        inputs = {p: "v" for p in config4.process_ids}
        untraced = run_protocol(
            avalanche_factory(), config4, inputs, run_full_rounds=2
        )
        assert "no trace" in render_round(untraced, 1)


class TestRenderDecisions:
    def test_decided_and_faulty_rows(self, traced_result):
        text = render_decisions(traced_result)
        assert "3: (faulty)" in text
        assert "@ round 2" in text

    def test_undecided_row(self, config4):
        inputs = {1: "a", 2: "a", 3: "b", 4: "b"}  # split: never decides
        result = run_protocol(
            avalanche_factory(), config4, inputs, run_full_rounds=3,
            record_trace=True,
        )
        assert "undecided" in render_decisions(result)


class TestGoldenOutputs:
    """Full-string pins: the rendered text is a published format.

    These runs are deterministic, so the exact output (including
    column alignment and trailing padding) is stable; a diff here
    means the rendering contract changed, not just cosmetics.
    """

    GOLDEN_ROUND = (
        "round 1\n"
        "snd\\rcv  1       2       3       4      \n"
        "1        'v'     'v'     -       'v'    \n"
        "2        'v'     'v'     -       'v'    \n"
        "3x       -       -       -       -      \n"
        "4        'v'     'v'     -       'v'    "
    )

    GOLDEN_DECISIONS = (
        "decisions:\n"
        "  1: 'v' @ round 2\n"
        "  2: 'v' @ round 2\n"
        "  3: (faulty)\n"
        "  4: 'v' @ round 2"
    )

    # the faulty sender's row shows the adversary-replaced envelopes:
    # receiver 3 got a different value than receivers 1 and 2
    GOLDEN_EQUIVOCATED_ROUND = (
        "round 1\n"
        "snd\\rcv  1       2       3       4      \n"
        "1        0       0       0       -      \n"
        "2        1       1       1       -      \n"
        "3        0       0       0       -      \n"
        "4x       0       0       1       -      "
    )

    @pytest.fixture
    def equivocated_result(self, config4):
        inputs = {1: 0, 2: 1, 3: 0, 4: 1}
        return run_protocol(
            avalanche_factory(),
            config4,
            inputs,
            adversary=EquivocatingAdversary([4], 0, 1),
            run_full_rounds=2,
            record_trace=True,
        )

    def test_round_matrix(self, traced_result):
        assert render_round(traced_result, 1) == self.GOLDEN_ROUND

    def test_decisions(self, traced_result):
        assert render_decisions(traced_result) == self.GOLDEN_DECISIONS

    def test_adversary_replaced_envelopes(self, equivocated_result):
        assert (
            render_round(equivocated_result, 1)
            == self.GOLDEN_EQUIVOCATED_ROUND
        )

    def test_execution_stitches_rounds_and_decisions(self, traced_result):
        text = render_execution(traced_result, rounds=[1])
        assert text == (
            self.GOLDEN_ROUND + "\n\n" + render_decisions(traced_result)
        )


class TestRenderExecution:
    def test_full_render(self, config4):
        inputs = {p: p % 2 for p in config4.process_ids}
        result = run_compact_byzantine_agreement(
            config4,
            inputs,
            value_alphabet=[0, 1],
            k=2,
            adversary=EquivocatingAdversary([4], 0, 1),
            record_trace=True,
        )
        text = render_execution(result)
        assert text.count("round ") >= result.rounds
        assert "decisions:" in text

    def test_round_selection(self, traced_result):
        text = render_execution(traced_result, rounds=[2])
        assert "round 2" in text
        assert "round 1" not in text
