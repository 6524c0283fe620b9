"""Penalty ledger arithmetic and the fitness map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.baselines import fcfs_schedule
from medsched.fitness import PenaltyBreakdown, compute_penalties, fitness
from medsched.ga import SearchSpace
from medsched.metrics import solution_metrics
from medsched.model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    RuleLogic,
    Schedule,
    ScheduleRequest,
)

from conftest import make_schedule, make_slot


def total_of(schedule, request, rules=()):
    return compute_penalties(schedule, request, rules).total()


class TestComputePenalties:
    def test_worked_two_slot_example(self):
        # 09:00-09:30 and 10:00-10:30 at one facility, same day as start_day.
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=600, duration=30),
        )
        request = ScheduleRequest(acts=("E00", "E00"), start_day=0)
        breakdown = compute_penalties(schedule, request, [])
        assert breakdown.missing_slot == 0
        assert breakdown.hard_violations == 0
        assert breakdown.trips == 100
        assert breakdown.travel_gap == 0
        assert breakdown.wait == pytest.approx(3.0)
        assert breakdown.lead == 0
        assert breakdown.total() == pytest.approx(103.0)

    def test_empty_schedule_only_missing_penalty(self):
        request = ScheduleRequest(acts=("E00",))
        breakdown = compute_penalties(Schedule(assignments=()), request, [])
        assert breakdown.missing_slot == 1000
        assert breakdown.total() == 1000

    def test_partial_schedule_still_scores_other_terms(self):
        request = ScheduleRequest(acts=("E00", "E01"))
        breakdown = compute_penalties(
            make_schedule(make_slot(id="A", start=540, duration=30)), request, []
        )
        assert breakdown.missing_slot == 1000
        assert breakdown.trips == 100

    def test_two_missing_acts_cost_one_missing_slot_penalty(self):
        # 1000 once for an incomplete schedule, not 1000 per missing act.
        # Three acts of one exam share a single slot, so FCFS books one.
        booked = make_slot(id="A", exam="E01", start=540, duration=30)
        request = ScheduleRequest(acts=("E01", "E01", "E01"))
        schedule = fcfs_schedule(SearchSpace(per_act_slots=((booked,),) * 3))
        assert schedule == make_schedule(booked)
        breakdown = compute_penalties(schedule, request, [])
        assert breakdown.missing_slot == 1000
        assert breakdown.total() == 1100  # the missing slot and one trip
        assert fitness(breakdown) == 1 / 1101
        assert not solution_metrics(schedule, [], len(request.acts)).fully_scheduled

    def test_overlap_costs_thousand_and_one_trip(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=570, duration=60),
        )
        request = ScheduleRequest(acts=("E00", "E00"))
        breakdown = compute_penalties(schedule, request, [])
        assert breakdown.hard_violations == 1000
        assert breakdown.trips == 100

    def test_incompatibility_and_overlap_stack(self):
        schedule = make_schedule(
            make_slot(id="A", exam="E01", start=540, duration=60),
            make_slot(id="B", exam="E02", start=570, duration=60),
        )
        rules = [
            IncompatibilityRule(
                first="E01", second="E02", logic=RuleLogic.BOTH, gap_minutes=60
            )
        ]
        request = ScheduleRequest(acts=("E01", "E02"))
        breakdown = compute_penalties(schedule, request, rules)
        assert breakdown.hard_violations == 2000

    def test_travel_gap_term(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=60),
            make_slot(id="B", facility="F2", start=720, duration=30),
        )
        request = ScheduleRequest(acts=("E00", "E00"))
        breakdown = compute_penalties(schedule, request, [])
        assert breakdown.travel_gap == 600
        assert breakdown.trips == 200

    def test_wait_spans_days(self):
        # Ends day 0 at 10:00, resumes day 1 at 09:00: 1380 idle minutes.
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=MINUTES_PER_DAY + 540, duration=30),
        )
        request = ScheduleRequest(acts=("E00", "E00"))
        assert compute_penalties(schedule, request, []).wait == pytest.approx(138.0)

    def test_lead_counts_days_before_first_slot(self):
        schedule = make_schedule(
            make_slot(id="A", start=3 * MINUTES_PER_DAY + 540, duration=30)
        )
        assert compute_penalties(schedule, ScheduleRequest(acts=("E00",)), []).lead == 3
        later_start = ScheduleRequest(acts=("E00",), start_day=5)
        assert compute_penalties(schedule, later_start, []).lead == 0


class TestFitness:
    def test_zero_penalties_is_one(self):
        assert fitness(PenaltyBreakdown(0, 0, 0, 0, 0.0, 0)) == 1.0

    def test_worked_example_value(self):
        assert fitness(PenaltyBreakdown(0, 0, 100, 0, 3.0, 0)) == pytest.approx(1 / 104)

    def test_thousand_penalty_value(self):
        assert fitness(PenaltyBreakdown(1000, 0, 0, 0, 0.0, 0)) == pytest.approx(1 / 1001)

    @settings(max_examples=1000, deadline=None)
    @given(
        lo=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        delta=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    )
    def test_strictly_decreasing_into_unit_interval(self, lo, delta):
        f_lo = fitness(PenaltyBreakdown(0, 0, 0, 0, lo, 0))
        f_hi = fitness(PenaltyBreakdown(0, 0, 0, 0, lo + delta, 0))
        assert 0 < f_hi < f_lo <= 1

    def test_hard_violation_dominates_soft_penalties(self):
        # One overlap outweighs any soft-term pile below 1000.
        overlapping = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=570, duration=60),
        )
        # Clean but expensive: two facilities, long waits, late start.
        straggling = make_schedule(
            make_slot(id="A", facility="F1", start=5 * MINUTES_PER_DAY + 540, duration=30),
            make_slot(id="B", facility="F2", start=6 * MINUTES_PER_DAY + 1200, duration=30),
        )
        request = ScheduleRequest(acts=("E00", "E00"))
        bad = compute_penalties(overlapping, request, [])
        costly = compute_penalties(straggling, request, [])
        assert bad.hard_violations >= 1000
        assert costly.hard_violations == 0 and costly.missing_slot == 0
        assert fitness(bad) < fitness(costly)


class TestMonotonicity:
    def test_adding_an_overlap_lowers_fitness(self):
        request = ScheduleRequest(acts=("E00", "E00"))
        clean = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=600, duration=30),
        )
        collided = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=550, duration=30),
        )
        assert fitness(compute_penalties(collided, request, [])) < fitness(
            compute_penalties(clean, request, [])
        )

    @settings(max_examples=1000, deadline=None)
    @given(
        minute=st.integers(min_value=0, max_value=MINUTES_PER_DAY - 30),
        day=st.integers(min_value=0, max_value=10),
        extra_wait=st.integers(min_value=10, max_value=600),
    )
    def test_more_idle_time_strictly_lowers_fitness(self, minute, day, extra_wait):
        # Second slot two weeks out either way: trips, travel and lead all tie,
        # so only the wait term separates the two schedules.
        request = ScheduleRequest(acts=("E00", "E00"), start_day=day)
        first = make_slot(id="A", start=day * MINUTES_PER_DAY + minute, duration=30)
        near_start = (day + 14) * MINUTES_PER_DAY + 540
        near = make_schedule(first, make_slot(id="B", start=near_start, duration=30))
        far = make_schedule(
            first, make_slot(id="B", start=near_start + extra_wait, duration=30)
        )
        assert fitness(compute_penalties(far, request, [])) < fitness(
            compute_penalties(near, request, [])
        )
