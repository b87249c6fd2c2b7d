"""Tests for the sweep harness, driving the compact protocol at scale."""

import pytest

from repro.analysis.sweeps import (
    standard_adversary_makers,
    sweep,
)
from repro.compact.byzantine_agreement import (
    compact_ba_factory,
    compact_ba_rounds,
)
from repro.compact.payload import compact_sizer, payload_is_null
from repro.core.predicates import byzantine_agreement_predicate


@pytest.fixture
def report(config4):
    factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
    return sweep(
        factory,
        config4,
        input_patterns=[
            {p: p % 2 for p in config4.process_ids},
            {p: 1 for p in config4.process_ids},
        ],
        fault_sets=[(1,), (4,)],
        adversary_makers=standard_adversary_makers(),
        seeds=(0, 1),
        predicate=byzantine_agreement_predicate(),
        max_rounds=compact_ba_rounds(config4.t, 1) + 1,
        sizer=compact_sizer(config4, 2),
        is_null=payload_is_null,
    )


class TestSweep:
    def test_grid_size(self, report):
        # 2 patterns x 2 fault sets x 6 adversaries x 2 seeds
        assert report.executions == 48

    def test_predicate_holds_everywhere(self, report):
        assert report.all_hold(), [
            outcome.describe() for outcome in report.violations
        ]

    def test_aggregates(self, report):
        assert report.total_bits() > 0
        assert report.max_rounds() == compact_ba_rounds(1, 1)

    def test_outcome_description(self, report):
        line = report.outcomes[0].describe()
        assert "faulty=" in line and "adversary=" in line

    def test_predicate_optional(self, config4):
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        report = sweep(
            factory,
            config4,
            input_patterns=[{p: 0 for p in config4.process_ids}],
            fault_sets=[(1,)],
            adversary_makers=standard_adversary_makers()[:1],
            max_rounds=compact_ba_rounds(config4.t, 1) + 1,
        )
        assert report.outcomes[0].predicate_holds is None
        assert report.all_hold()  # no violations recorded

    def test_violation_detection(self, config4):
        """A predicate that always fails is reported as violations."""
        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        report = sweep(
            factory,
            config4,
            input_patterns=[{p: 0 for p in config4.process_ids}],
            fault_sets=[(1,)],
            adversary_makers=standard_adversary_makers()[:2],
            predicate=lambda ans, faulty, inputs: False,
            max_rounds=compact_ba_rounds(config4.t, 1) + 1,
        )
        assert not report.all_hold()
        assert len(report.violations) == 2
        assert "VIOLATION" in report.violations[0].describe()

    def test_predicate_exception_captured_as_error(self, config4):
        """A raising predicate becomes SweepOutcome.error, not a crash."""

        def exploding(answers, faulty, inputs):
            raise ZeroDivisionError("predicate blew up")

        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        report = sweep(
            factory,
            config4,
            input_patterns=[{p: 0 for p in config4.process_ids}],
            fault_sets=[(1,)],
            adversary_makers=standard_adversary_makers()[:2],
            predicate=exploding,
            max_rounds=compact_ba_rounds(config4.t, 1) + 1,
        )
        assert all(o.predicate_holds is None for o in report.outcomes)
        assert [o.error for o in report.outcomes] == [
            "ZeroDivisionError: predicate blew up",
            "ZeroDivisionError: predicate blew up",
        ]
        assert not report.all_hold()
        assert len(report.violations) == 2
        assert report.errors == report.violations
        assert "ERROR" in report.errors[0].describe()

    def test_predicate_errors_survive_the_pool(self, config4):
        """Errors captured in workers round-trip to the report."""

        def sometimes_exploding(answers, faulty, inputs):
            if 4 in faulty:
                raise ValueError("bad fault set")
            return True

        factory = compact_ba_factory(config4, [0, 1], default=0, k=1)
        kwargs = dict(
            input_patterns=[{p: 0 for p in config4.process_ids}],
            fault_sets=[(1,), (4,)],
            adversary_makers=standard_adversary_makers()[:2],
            predicate=sometimes_exploding,
            max_rounds=compact_ba_rounds(config4.t, 1) + 1,
        )
        pooled = sweep(factory, config4, workers=2, **kwargs)
        serial = sweep(factory, config4, workers=1, **kwargs)
        assert [o.error for o in pooled.outcomes] == [
            o.error for o in serial.outcomes
        ]
        assert len(pooled.errors) == 2
        assert all(o.error == "ValueError: bad fault set"
                   for o in pooled.errors)
        assert all(4 in o.faulty for o in pooled.errors)
