"""Penalty ledger and scalar fitness for candidate schedules.

Penalty weights: 1000 per missing act and per hard violation (overlap or
incompatibility breach), 100 per trip, 600 per under-3h inter-facility
transfer, idle minutes divided by 10, and one point per day of lead time
before the first appointment.  Fitness is 1 / (1 + total), a strictly
decreasing map from total penalties onto (0, 1] with 1 meaning penalty-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .constraints import (
    check_incompatibilities,
    check_travel_gaps,
    find_overlaps,
    idle_minutes,
    segment_trips,
)
from .model import MINUTES_PER_DAY, IncompatibilityRule, Schedule, ScheduleRequest

MISSING_SLOT_PENALTY = 1000
HARD_VIOLATION_PENALTY = 1000
PER_TRIP_PENALTY = 100
TRAVEL_GAP_PENALTY = 600
WAIT_MINUTES_PER_POINT = 10


@dataclass(frozen=True)
class PenaltyBreakdown:
    """Itemized penalty terms; ``total`` is what the fitness score divides by."""

    missing_slot: int
    hard_violations: int
    trips: int
    travel_gap: int
    wait: float
    lead: int

    def total(self) -> float:
        return (
            self.missing_slot
            + self.hard_violations
            + self.trips
            + self.travel_gap
            + self.wait
            + self.lead
        )


def compute_penalties(
    schedule: Schedule,
    request: ScheduleRequest,
    rules: Iterable[IncompatibilityRule],
) -> PenaltyBreakdown:
    """Score one schedule against its request and the world's rules."""
    missing = MISSING_SLOT_PENALTY if len(schedule) != len(request.acts) else 0
    if not schedule.assignments:
        return PenaltyBreakdown(missing, 0, 0, 0, 0.0, 0)

    hard = HARD_VIOLATION_PENALTY * (
        len(find_overlaps(schedule)) + len(check_incompatibilities(schedule, rules))
    )
    trips = PER_TRIP_PENALTY * len(segment_trips(schedule))
    travel = TRAVEL_GAP_PENALTY * len(check_travel_gaps(schedule))

    ordered = schedule.sorted_by_start()
    wait = idle_minutes(ordered) / WAIT_MINUTES_PER_POINT

    first_day = ordered[0][1].start // MINUTES_PER_DAY
    lead = max(0, first_day - request.start_day)

    return PenaltyBreakdown(missing, hard, trips, travel, wait, lead)


def fitness(breakdown: PenaltyBreakdown) -> float:
    """Scalar score in (0, 1]: 1 when penalty-free, shrinking as penalties grow."""
    return 1.0 / (1.0 + breakdown.total())
