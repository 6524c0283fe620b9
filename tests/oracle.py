"""The scoring oracle: one checker per concern, written for clarity, not speed.

Each checker lists what ``constraints.schedule_counts`` counts for one
concern: overlapping pairs, rule breaches, trips, under-3h transfers and
idle minutes.  ``conftest.reference_penalties`` and ``reference_metrics``
compose them, and the tests hold the package's one scoring pass, and the
GA's evaluator, equal to that composition.  ``reference_act_order``
orders acts by its own edge loops over the rules' logic, and the tests
hold ``constraints.optimal_act_order``, which takes its edges from
``rule_checks``, equal to it.  ``reference_exam_slots`` scans a slot
table for one exam, and the tests hold ``SlotTable.exam_slots``, which
indexes every exam in one pass, equal to it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from medsched.constraints import TRAVEL_GAP_MINUTES, TRIP_GAP_MINUTES
from medsched.model import IncompatibilityRule, RuleLogic, Schedule, TimeSlot


def slots_overlap(a: TimeSlot, b: TimeSlot) -> bool:
    """True iff the half-open intervals of the two slots intersect."""
    return a.start < b.end and b.start < a.end


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


def reference_act_order(
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


def reference_exam_slots(slots: Iterable[TimeSlot], exam: str) -> tuple[TimeSlot, ...]:
    """``exam``'s slots sorted by (start, id) from table order.

    ``sorted`` is stable, so slots that tie on (start, id), as a hand-built
    table with a repeated id can have, keep their table order.
    """
    return tuple(
        sorted((slot for slot in slots if slot.exam == exam), key=lambda s: (s.start, s.id))
    )
