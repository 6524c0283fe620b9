"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from medsched.datagen import WorldConfig, generate_world
from medsched.fitness import (
    HARD_VIOLATION_PENALTY,
    PER_TRIP_PENALTY,
    TRAVEL_GAP_PENALTY,
    WAIT_MINUTES_PER_POINT,
    PenaltyBreakdown,
)
from medsched.metrics import SolutionMetrics
from medsched.model import MINUTES_PER_DAY, Schedule, TimeSlot

from oracle import (
    check_incompatibilities,
    check_travel_gaps,
    find_overlaps,
    idle_minutes,
    segment_trips,
)

DAY = 1440


def make_slot(
    id: str = "S1",
    start: int = 540,
    duration: int = 30,
    exam: str = "E00",
    facility: str = "F1",
    room: str | None = None,
    practitioner: str = "P1",
) -> TimeSlot:
    """A TimeSlot with compact defaults for constraint/fitness tests."""
    return TimeSlot(
        id=id,
        exam=exam,
        facility=facility,
        room=room if room is not None else f"{facility}-R1",
        practitioner=practitioner,
        start=start,
        duration_minutes=duration,
    )


def make_schedule(*slots: TimeSlot) -> Schedule:
    """Schedule assigning act i to the i-th slot."""
    return Schedule(assignments=tuple(enumerate(slots)))


def unversioned_world_document(document):
    """A format-2 world document in the layout world files had before ``format``.

    That layout has no ``format`` key, and its ``slots`` are a list of one
    object per slot, each with its fields and a ``start_label``.
    """
    old = {key: value for key, value in document.items() if key != "format"}
    columns = document["slots"]
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    old["slots"] = [
        {**row, "start_label": f"{row['start'] // DAY}T{row['start'] % DAY}"} for row in rows
    ]
    return old


def collections_during(function, *args, **kwargs):
    """``function(*args, **kwargs)`` and a ``Counter`` of the cyclic
    collections it ran, by generation."""
    counts = Counter()

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        return function(*args, **kwargs), counts
    finally:
        gc.callbacks.remove(count)


@pytest.fixture(scope="session")
def default_world():
    """The default benchmark world; generated once per test session."""
    return generate_world(WorldConfig())


# The scoring oracle: penalties and metrics composed from the checkers in
# ``oracle``, one concern per checker, independent of
# ``constraints.schedule_counts``.


def reference_penalties(schedule, request, rules):
    """``compute_penalties`` composed from the checkers."""
    hard = HARD_VIOLATION_PENALTY * (
        len(find_overlaps(schedule)) + len(check_incompatibilities(schedule, rules))
    )
    trips = PER_TRIP_PENALTY * len(segment_trips(schedule))
    travel = TRAVEL_GAP_PENALTY * len(check_travel_gaps(schedule))
    ordered = schedule.sorted_by_start()
    wait = idle_minutes(ordered) / WAIT_MINUTES_PER_POINT
    first_day = ordered[0][1].start // MINUTES_PER_DAY
    lead = max(0, first_day - request.start_day)
    return PenaltyBreakdown(hard, trips, travel, wait, lead)


def reference_metrics(schedule, rules, act_count):
    """``solution_metrics`` composed from the checkers."""
    itr = None
    if len(schedule) >= 2:
        ordered = schedule.sorted_by_start()
        itr = idle_minutes(ordered) / (ordered[-1][1].end - ordered[0][1].start)
    return SolutionMetrics(
        itr=itr,
        trips=len(segment_trips(schedule)),
        overlap_ok=not find_overlaps(schedule),
        compatibility_ok=not check_incompatibilities(schedule, rules),
        travel_ok=not check_travel_gaps(schedule),
        fully_scheduled=len(schedule) == act_count,
    )
