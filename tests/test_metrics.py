"""Evaluation metrics: ITR, trips, constraint flags, Mann-Whitney U."""

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.metrics import mann_whitney_u, solution_metrics
from medsched.model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    RuleLogic,
)

from conftest import make_schedule, make_slot


def itr_of(schedule):
    return solution_metrics(schedule, (), len(schedule)).itr


def trips_of(schedule):
    return solution_metrics(schedule, (), len(schedule)).trips


class TestIdleTimeRatio:
    def test_back_to_back_is_zero(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=600, duration=60),
        )
        assert itr_of(schedule) == 0.0

    def test_worked_example_one_third(self):
        # [09:00,10:00) then [11:00,12:00): 60 idle over a 180-minute span.
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=660, duration=60),
        )
        assert itr_of(schedule) == pytest.approx(60 / 180)

    def test_undefined_below_two_assignments(self):
        assert itr_of(make_schedule(make_slot(id="A", start=540))) is None

    def test_overlap_gaps_clamp_to_zero(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=570, duration=60),  # overlaps A
            make_slot(id="C", start=690, duration=30),  # 60 after B
        )
        # Span 09:00-12:00 = 180; only the positive 60-minute gap counts.
        assert itr_of(schedule) == pytest.approx(60 / 180)

    @settings(max_examples=1000, deadline=None)
    @given(
        minutes=st.lists(
            st.integers(min_value=0, max_value=600), min_size=2, max_size=5, unique=True
        ),
        duration=st.sampled_from([15, 30, 45]),
    )
    def test_in_unit_interval_for_disjoint_schedules(self, minutes, duration):
        # One slot per day at the drawn minute: disjoint by construction.
        minutes.sort()
        slots = [
            make_slot(id=f"S{i}", start=i * MINUTES_PER_DAY + 540 + m, duration=duration)
            for i, m in enumerate(minutes)
        ]
        ratio = itr_of(make_schedule(*slots))
        assert 0 <= ratio < 1


class TestTripCount:
    def test_single_facility_tight_gaps(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=600, duration=30),
        )
        assert trips_of(schedule) == 1

    def test_facility_round_trip(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=30),
            make_slot(id="B", facility="F2", start=600, duration=30),
            make_slot(id="C", facility="F1", start=660, duration=30),
        )
        assert trips_of(schedule) == 3

    def test_four_hour_gap_splits_trip(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=540 + 30 + 240, duration=30),
        )
        assert trips_of(schedule) == 2


def flags(schedule, rules, act_count):
    """The four constraint flags ``solution_metrics`` reports."""
    metrics = solution_metrics(schedule, rules, act_count)
    return (
        metrics.overlap_ok,
        metrics.compatibility_ok,
        metrics.travel_ok,
        metrics.fully_scheduled,
    )


class TestConstraintFulfillment:
    def test_overlap_only_flips_one_flag(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=570, duration=60),
        )
        assert flags(schedule, [], 2) == (False, True, True, True)

    def test_travel_gap_just_under_three_hours(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=60),
            make_slot(id="B", facility="F2", start=600 + 179, duration=30),
        )
        assert flags(schedule, [], 2) == (True, True, False, True)

    def test_incompatibility_flag(self):
        schedule = make_schedule(
            make_slot(id="A", exam="E01", start=540, duration=30),
            make_slot(id="B", exam="E02", start=580, duration=30),
        )
        rules = [
            IncompatibilityRule(
                first="E01", second="E02", logic=RuleLogic.BOTH, gap_minutes=60
            )
        ]
        assert flags(schedule, rules, 2) == (True, False, True, True)

    def test_partial_schedule_not_fully_scheduled(self):
        schedule = make_schedule(make_slot(id="A", start=540))
        assert flags(schedule, [], 2) == (True, True, True, False)


class TestSolutionMetrics:
    def test_bundles_everything(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=660, duration=60),
        )
        metrics = solution_metrics(schedule, [], 2)
        assert metrics.itr == pytest.approx(1 / 3)
        assert metrics.trips == 1
        assert metrics.overlap_ok and metrics.compatibility_ok and metrics.travel_ok
        assert metrics.fully_scheduled


class TestMannWhitneyU:
    def test_fully_separated_samples(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert 0 < p < 0.2  # n=3 per group cannot reach conventional significance

    def test_identical_samples(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        u, p = mann_whitney_u(sample, list(sample))
        assert u == len(sample) ** 2 / 2
        assert p == 1.0

    def test_tied_pairs_average_ranks(self):
        u, _ = mann_whitney_u([1, 2], [1, 2])
        assert u == 2.0

    def test_all_constant_gives_p_one(self):
        u, p = mann_whitney_u([5.0] * 6, [5.0] * 6)
        assert p == 1.0
        assert u == 18.0

    def test_rejects_empty_samples(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])

    def test_clearly_different_groups_significant(self):
        a = [0.1, 0.12, 0.11, 0.13, 0.09, 0.1, 0.12, 0.14, 0.11, 0.1] * 3
        b = [0.5, 0.52, 0.51, 0.53, 0.49, 0.5, 0.52, 0.54, 0.51, 0.5] * 3
        u, p = mann_whitney_u(a, b)
        assert u == 0.0
        assert p < 1e-6

    sample_strategy = st.lists(
        st.integers(min_value=0, max_value=12).map(float), min_size=2, max_size=25
    )

    @settings(max_examples=1000, deadline=None)
    @given(sample_a=sample_strategy, sample_b=sample_strategy)
    def test_symmetry_and_range(self, sample_a, sample_b):
        u_ab, p_ab = mann_whitney_u(sample_a, sample_b)
        u_ba, p_ba = mann_whitney_u(sample_b, sample_a)
        assert u_ab == u_ba
        assert p_ab == pytest.approx(p_ba)
        assert 0 <= u_ab <= len(sample_a) * len(sample_b)
        assert 0 < p_ab <= 1

    @settings(max_examples=1000, deadline=None)
    @given(sample_a=sample_strategy, sample_b=sample_strategy)
    def test_matches_scipy_asymptotic(self, sample_a, sample_b):
        u, p = mann_whitney_u(sample_a, sample_b)
        if len(set(sample_a) | set(sample_b)) == 1:
            # Zero-variance ranking: scipy yields nan here, this package pins 1.0.
            assert p == 1.0
            return
        ref = scipy.stats.mannwhitneyu(
            sample_a, sample_b, alternative="two-sided", method="asymptotic"
        )
        n_product = len(sample_a) * len(sample_b)
        assert u == pytest.approx(min(ref.statistic, n_product - ref.statistic))
        assert p == pytest.approx(min(1.0, ref.pvalue), abs=1e-9)
