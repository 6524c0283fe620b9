"""Feasibility checks: overlaps, incompatibility rules, trips and travel gaps.

``schedule_counts`` is the one scoring pass: fitness and metrics read its
counts.  Its walk over consecutive picks, ``walk_picks``, is also the GA
evaluator's, so the two cannot count differently.  The checkers below list
what the pass counts, one concern each; they are the tests' reference for it.

Gap conventions, fixed once here and reused by fitness, metrics and the GA:
a rule's separation is measured from the earlier slot's end to the later
slot's start; trip boundaries trigger on a gap strictly greater than
``TRIP_GAP_MINUTES``; inter-facility travel needs at least
``TRAVEL_GAP_MINUTES``.  Raw gaps may be negative when slots overlap.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

from .model import IncompatibilityRule, RuleLogic, Schedule, TimeSlot, slots_overlap

TRIP_GAP_MINUTES = 120
TRAVEL_GAP_MINUTES = 180

# A pick's (start, id), ``sorted_by_start``'s key, read by position so
# ``schedule_counts`` sorts at C speed and keeps equal keys in input order.
_START_ID = itemgetter(0, 1)


class ScheduleCounts(NamedTuple):
    """What one walk of a schedule counts; see :func:`schedule_counts`."""

    overlaps: int
    breaches: int
    trips: int
    transfers: int
    idle: int
    span: int
    first_start: int


def walk_picks(
    picks: Sequence[tuple[int, Any, int, Any]],
) -> tuple[int, int, int, int]:
    """Overlaps, trips, transfers and idle minutes of a pick sequence.

    This is the one walk over consecutive picks.  Each pick is ``(start,
    tiebreak, end, facility)``, ``picks`` is non-empty and sorted by start,
    and only ``start``, ``end`` and ``facility`` are read.  A pick overlaps
    the previous one when it starts before that one ends; every later pick
    that also starts before that end counts as one more overlap.  A trip
    starts at the first pick, on a facility change, and on a gap over
    ``TRIP_GAP_MINUTES``; a facility change under ``TRAVEL_GAP_MINUTES`` is
    a transfer.  Idle minutes sum the positive gaps.
    """
    overlaps = transfers = idle = 0
    trips = 1
    count = len(picks)
    _, _, prev_end, prev_facility = picks[0]
    for i in range(1, count):
        start, _, end, facility = picks[i]
        gap = start - prev_end
        if gap > 0:
            idle += gap
        elif gap < 0:
            # This pick overlaps the previous one, and so does every later
            # pick that starts before the previous end: starts are sorted.
            overlaps += 1
            later = i + 1
            while later < count and picks[later][0] < prev_end:
                overlaps += 1
                later += 1
        if facility != prev_facility:
            trips += 1
            if gap < TRAVEL_GAP_MINUTES:
                transfers += 1
        elif gap > TRIP_GAP_MINUTES:
            trips += 1
        prev_end, prev_facility = end, facility
    return overlaps, trips, transfers, idle


def schedule_counts(
    schedule: Schedule, rules: Iterable[IncompatibilityRule]
) -> ScheduleCounts:
    """Every count fitness and metrics read, from one sort and one walk.

    The counts equal the checkers': ``overlaps``, ``breaches``, ``trips``
    and ``transfers`` are the lengths of ``find_overlaps``,
    ``check_incompatibilities``, ``segment_trips`` and
    ``check_travel_gaps``, and ``idle`` is ``idle_minutes`` of the start
    order.  ``span`` runs from the first start to the end of the last pick
    in start order, ``first_start`` is the first start, and an empty
    schedule counts all zeros.
    """
    picks = [
        (slot.start, slot.id, slot.start + slot.duration_minutes, slot.facility)
        for _, slot in schedule.assignments
    ]
    picks.sort(key=_START_ID)
    if not picks:
        return ScheduleCounts(0, 0, 0, 0, 0, 0, 0)
    overlaps, trips, transfers, idle = walk_picks(picks)

    breaches = 0
    by_exam: dict[str, list[tuple[int, TimeSlot]]] = {}
    for pair in schedule.assignments:
        by_exam.setdefault(pair[1].exam, []).append(pair)
    for rule in rules:
        firsts = by_exam.get(rule.first)
        seconds = by_exam.get(rule.second) if firsts else None
        if not seconds:
            continue
        logic, gap = rule.logic, rule.gap_minutes
        for act_1, slot_1 in firsts:
            for act_2, slot_2 in seconds:
                if act_1 == act_2:
                    continue
                if logic is RuleLogic.BEFORE:
                    separation = slot_2.start - slot_1.end
                elif logic is RuleLogic.AFTER:
                    separation = slot_1.start - slot_2.end
                else:
                    separation = _separation(slot_1, slot_2)
                if separation < gap:
                    breaches += 1

    first_start = picks[0][0]
    return ScheduleCounts(
        overlaps, breaches, trips, transfers, idle, picks[-1][2] - first_start, first_start
    )


def find_overlaps(schedule: Schedule) -> list[tuple[int, int]]:
    """The act pair of each unordered pair of assignments whose slots overlap."""
    pairs = schedule.sorted_by_start()
    violations = []
    for i in range(len(pairs)):
        act_i, slot_i = pairs[i]
        for j in range(i + 1, len(pairs)):
            act_j, slot_j = pairs[j]
            if slot_j.start >= slot_i.end:
                break  # starts are sorted: nothing later overlaps slot_i
            if slots_overlap(slot_i, slot_j):
                violations.append((act_i, act_j))
    return violations


def _separation(a: TimeSlot, b: TimeSlot) -> int:
    """Minutes from the earlier slot's end to the later slot's start (may be < 0)."""
    earlier, later = (a, b) if (a.start, a.end) <= (b.start, b.end) else (b, a)
    return later.start - earlier.end


def check_incompatibilities(
    schedule: Schedule, rules: Iterable[IncompatibilityRule]
) -> list[tuple[int, int]]:
    """The act pair of each (rule, assignment pair) whose separation breaks the rule.

    BEFORE and AFTER also fail when the pair is scheduled in the wrong order,
    not merely when the gap is too small.
    """
    by_exam: dict[str, list[tuple[int, TimeSlot]]] = {}
    for act, slot in schedule.assignments:
        by_exam.setdefault(slot.exam, []).append((act, slot))
    violations = []
    for rule in rules:
        firsts = by_exam.get(rule.first)
        seconds = by_exam.get(rule.second)
        if not firsts or not seconds:
            continue
        for act_1, slot_1 in firsts:
            for act_2, slot_2 in seconds:
                if act_1 == act_2:
                    continue
                if rule.logic is RuleLogic.BEFORE:
                    ok = slot_2.start - slot_1.end >= rule.gap_minutes
                elif rule.logic is RuleLogic.AFTER:
                    ok = slot_1.start - slot_2.end >= rule.gap_minutes
                else:
                    ok = _separation(slot_1, slot_2) >= rule.gap_minutes
                if not ok:
                    violations.append((act_1, act_2))
    return violations


def segment_trips(schedule: Schedule) -> tuple[tuple[tuple[int, TimeSlot], ...], ...]:
    """Split the chronological assignment sequence into trips.

    Each trip is a maximal run of (act, slot) pairs at one facility.  A new
    trip starts on a facility change or on an idle gap strictly greater than
    two hours.
    """
    if not schedule.assignments:
        raise ValueError("cannot segment an empty schedule")
    ordered = schedule.sorted_by_start()
    segments = []
    run = [ordered[0]]
    for prev, cur in zip(ordered, ordered[1:]):
        facility_change = cur[1].facility != prev[1].facility
        gap = cur[1].start - prev[1].end
        if facility_change or gap > TRIP_GAP_MINUTES:
            segments.append(tuple(run))
            run = [cur]
        else:
            run.append(cur)
    segments.append(tuple(run))
    return tuple(segments)


def check_travel_gaps(schedule: Schedule) -> list[tuple[int, int]]:
    """The act pair of each consecutive pair at different facilities under 3h apart."""
    ordered = schedule.sorted_by_start()
    violations = []
    for (act_a, slot_a), (act_b, slot_b) in zip(ordered, ordered[1:]):
        if slot_a.facility == slot_b.facility:
            continue
        if slot_b.start - slot_a.end < TRAVEL_GAP_MINUTES:
            violations.append((act_a, act_b))
    return violations


def idle_minutes(ordered: Sequence[tuple[int, TimeSlot]]) -> int:
    """Idle minutes between consecutive assignments of a start-sorted schedule.

    Only positive gaps count: overlapping slots add no idle time.
    """
    idle = 0
    for (_, slot_a), (_, slot_b) in zip(ordered, ordered[1:]):
        gap = slot_b.start - slot_a.end
        if gap > 0:
            idle += gap
    return idle


def optimal_act_order(
    acts: Sequence[str], rules: Iterable[IncompatibilityRule]
) -> tuple[int, ...]:
    """Order act indices so that rule-implied predecessors come first.

    Builds edges i -> j whenever some rule forces act i's exam before act
    j's exam, then topologically sorts with lowest-index tie-breaking.  If
    the rules contradict each other the leftover (cyclic) acts are appended
    in original request order; the output is a permutation of all act
    indices in every case.
    """
    n = len(acts)
    edges: set[tuple[int, int]] = set()
    for rule in rules:
        if rule.logic is RuleLogic.BEFORE:
            pred_exam, succ_exam = rule.first, rule.second
        elif rule.logic is RuleLogic.AFTER:
            pred_exam, succ_exam = rule.second, rule.first
        else:
            continue  # BOTH constrains the gap, not the order
        for i in range(n):
            if acts[i] != pred_exam:
                continue
            for j in range(n):
                if i != j and acts[j] == succ_exam:
                    edges.add((i, j))

    indegree = [0] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        successors[i].append(j)
        indegree[j] += 1

    order: list[int] = []
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    while ready:
        node = ready.pop(0)
        order.append(node)
        changed = False
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
                changed = True
        if changed:
            ready.sort()

    placed = set(order)
    order.extend(i for i in range(n) if i not in placed)
    return tuple(order)
