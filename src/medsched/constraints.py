"""Feasibility checks: overlaps, incompatibility rules, trips and travel gaps.

``schedule_counts`` is the one scoring pass: fitness and metrics read its
counts.  The checkers below it list what it counts, one concern each; they
are the tests' reference for the pass.

Gap conventions, fixed once here and reused by fitness and metrics:
a rule's separation is measured from the earlier slot's end to the later
slot's start; trip boundaries trigger on a gap strictly greater than
``TRIP_GAP_MINUTES``; inter-facility travel needs at least
``TRAVEL_GAP_MINUTES``.  Raw gaps may be negative when slots overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .model import IncompatibilityRule, RuleLogic, Schedule, TimeSlot, slots_overlap

TRIP_GAP_MINUTES = 120
TRAVEL_GAP_MINUTES = 180

# Read by position, so ``schedule_counts`` sorts at C speed: the second item
# of an (act, slot) pair, and a slot's (start, id), ``sorted_by_start``'s key.
_SLOT = itemgetter(1)
_START_ID = itemgetter(TimeSlot._fields.index("start"), TimeSlot._fields.index("id"))


@dataclass(frozen=True)
class ActOrder:
    """A precedence-respecting permutation of act indices.

    ``has_cycle`` flags contradictory rules; the permutation is still total
    (cycle members keep their original request order).
    """

    order: tuple[int, ...]
    has_cycle: bool


class ScheduleCounts(NamedTuple):
    """What one walk of a schedule counts; see :func:`schedule_counts`."""

    overlaps: int
    breaches: int
    trips: int
    transfers: int
    idle: int
    span: int
    first_start: int


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
    slots = sorted(map(_SLOT, schedule.assignments), key=_START_ID)
    if not slots:
        return ScheduleCounts(0, 0, 0, 0, 0, 0, 0)
    overlaps = transfers = idle = 0
    trips = 1
    count = len(slots)
    first_start = slots[0].start
    prev_end = first_start + slots[0].duration_minutes
    prev_facility = slots[0].facility
    for i in range(1, count):
        slot = slots[i]
        start = slot.start
        gap = start - prev_end
        if gap > 0:
            idle += gap
        elif gap < 0:
            # This slot overlaps the previous one, and so does every later
            # slot that starts before the previous end: starts are sorted.
            overlaps += 1
            later = i + 1
            while later < count and slots[later].start < prev_end:
                overlaps += 1
                later += 1
        if slot.facility != prev_facility:
            trips += 1
            if gap < TRAVEL_GAP_MINUTES:
                transfers += 1
        elif gap > TRIP_GAP_MINUTES:
            trips += 1
        prev_end, prev_facility = start + slot.duration_minutes, slot.facility

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

    return ScheduleCounts(
        overlaps, breaches, trips, transfers, idle, prev_end - first_start, first_start
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
) -> ActOrder:
    """Order act indices so that rule-implied predecessors come first.

    Builds edges i -> j whenever some rule forces act i's exam before act
    j's exam, then topologically sorts with lowest-index tie-breaking.  If
    the rules contradict each other the leftover (cyclic) acts are appended
    in original request order and the result is flagged; the output is a
    permutation of all act indices in every case.
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

    has_cycle = len(order) < n
    if has_cycle:
        placed = set(order)
        order.extend(i for i in range(n) if i not in placed)
    return ActOrder(order=tuple(order), has_cycle=has_cycle)
