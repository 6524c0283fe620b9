"""Penalty ledger and scalar fitness for candidate schedules.

Penalty weights: 1000 per hard violation (overlap or incompatibility
breach), 100 per trip, 600 per under-3h inter-facility transfer, idle
minutes divided by 10, and one point per day of lead time before the first
appointment.  Fitness is 1 / (1 + total), a strictly decreasing map from
total penalties onto (0, 1] with 1 meaning penalty-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .constraints import schedule_counts
from .model import MINUTES_PER_DAY, IncompatibilityRule, Schedule, ScheduleRequest

HARD_VIOLATION_PENALTY = 1000
PER_TRIP_PENALTY = 100
TRAVEL_GAP_PENALTY = 600
WAIT_MINUTES_PER_POINT = 10


@dataclass(frozen=True)
class PenaltyBreakdown:
    """Itemized penalty terms; ``total`` is what the fitness score divides by."""

    hard_violations: int
    trips: int
    travel_gap: int
    wait: float
    lead: int

    def total(self) -> float:
        return self.hard_violations + self.trips + self.travel_gap + self.wait + self.lead


def compute_penalties(
    schedule: Schedule,
    request: ScheduleRequest,
    rules: Iterable[IncompatibilityRule],
) -> PenaltyBreakdown:
    """Score one schedule, which books every act of ``request``, against the world's rules.

    A schedule whose act count is not the request's raises ``ValueError``.
    """
    if len(schedule) != len(request.acts):
        raise ValueError(f"schedule has {len(schedule)} acts for {len(request.acts)} requested")
    counts = schedule_counts(schedule, rules)
    return PenaltyBreakdown(
        HARD_VIOLATION_PENALTY * (counts.overlaps + counts.breaches),
        PER_TRIP_PENALTY * counts.trips,
        TRAVEL_GAP_PENALTY * counts.transfers,
        counts.idle / WAIT_MINUTES_PER_POINT,
        max(0, counts.first_start // MINUTES_PER_DAY - request.start_day),
    )


def fitness(breakdown: PenaltyBreakdown) -> float:
    """Scalar score in (0, 1]: 1 when penalty-free, shrinking as penalties grow."""
    return 1.0 / (1.0 + breakdown.total())
