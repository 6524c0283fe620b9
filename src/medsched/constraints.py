"""Scoring: overlaps, incompatibility rules, trips, travel gaps and act order.

``schedule_counts`` is the one scoring pass: fitness and metrics read its
counts.  ``rule_checks`` is the one place rules become breach checks, for
scoring and for ``optimal_act_order``.  ``walk_picks`` is the one walk over
a schedule's picks: the one place they are put in order, the checks
applied and the span measured.  The GA's evaluator calls both too, so it
cannot count differently.  The tests hold these counts equal to an oracle
with one checker per concern, ``tests/oracle.py``.

Gap conventions, fixed once here and reused by fitness, metrics and the GA:
a rule's separation is measured from the earlier slot's end to the later
slot's start; trip boundaries trigger on a gap strictly greater than
``TRIP_GAP_MINUTES``; inter-facility travel needs at least
``TRAVEL_GAP_MINUTES``.  Raw gaps may be negative when slots overlap.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .model import IncompatibilityRule, RuleLogic, Schedule

TRIP_GAP_MINUTES = 120
TRAVEL_GAP_MINUTES = 180

# A pick: a booked slot's (start, end, facility), and no id, so no score reads
# a slot's name; the one layout ``schedule_counts`` and the GA's evaluator build.
Pick = tuple[int, int, str]
# A breach check over act positions: (i, j, gap, symmetric); see rule_checks.
Check = tuple[int, int, int, bool]


class ScheduleCounts(NamedTuple):
    """What one walk of a schedule counts; see :func:`schedule_counts`."""

    overlaps: int
    breaches: int
    trips: int
    transfers: int
    idle: int
    span: int
    first_start: int


def rule_checks(rules: Iterable[IncompatibilityRule], exams: Sequence[str]) -> list[Check]:
    """Each rule as breach checks ``(i, j, gap, symmetric)`` over act positions.

    This is the one reader of a rule's logic.  ``exams[i]`` is act ``i``'s
    exam, and a schedule books act ``i`` at position ``i``.  A rule gives
    one check per pair of an act of its first exam and one of its second;
    a rule never pairs an exam with itself, so never an act with itself.
    A check is broken when act ``j`` starts under ``gap`` minutes after act
    ``i`` ends and, when ``symmetric`` (BOTH), also ``i`` under ``gap``
    after ``j``.  AFTER is BEFORE with the acts swapped, so a non-symmetric
    check puts ``i`` before ``j``.  Durations are positive, so for BOTH
    this equals measuring from the earlier slot's end.
    """
    positions: dict[str, list[int]] = {}
    for position, exam in enumerate(exams):
        positions.setdefault(exam, []).append(position)
    checks: list[Check] = []
    for rule in rules:
        firsts = positions.get(rule.first)
        seconds = positions.get(rule.second) if firsts else None
        if not seconds:
            continue
        gap, logic = rule.gap_minutes, rule.logic
        after, symmetric = logic is RuleLogic.AFTER, logic is RuleLogic.BOTH
        for i in firsts:
            for j in seconds:
                checks.append((j, i, gap, False) if after else (i, j, gap, symmetric))
    return checks


def walk_picks(
    by_position: Sequence[Pick], checks: Iterable[Check]
) -> tuple[int, int, int, int, int, int, int]:
    """A schedule's counts, as a plain tuple in ``ScheduleCounts``' field order.

    ``by_position`` holds one pick per act, in act order, for
    ``schedule_counts`` and the GA's evaluator alike.  ``checks`` come from
    ``rule_checks`` and index it.  The walk then runs over a sorted copy, the
    one place the picks are ordered: by start, the shorter of two
    equal-start picks first.  Equal start and end at two facilities fall to
    the facility id; those picks overlap, so the schedule already has a hard
    violation.  Picks still tied are equal, so their order changes no count.
    A pick overlaps the previous one when it starts before that one ends;
    every later pick that also starts before that end counts as one more
    overlap.  A trip starts at the first pick, on a facility change, and on a
    gap over ``TRIP_GAP_MINUTES``; a facility change under
    ``TRAVEL_GAP_MINUTES`` is a transfer.  Idle minutes sum the positive gaps
    between consecutive picks.  The span runs from the first start to the end
    of the last pick.
    """
    breaches = 0
    for i, j, gap, symmetric in checks:
        first, second = by_position[i], by_position[j]
        if second[0] - first[1] < gap and (not symmetric or first[0] - second[1] < gap):
            breaches += 1

    picks = sorted(by_position)
    overlaps = transfers = idle = 0
    trips = 1
    count = len(picks)
    first_start, prev_end, prev_facility = picks[0]
    for i in range(1, count):
        start, end, facility = picks[i]
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
    return overlaps, breaches, trips, transfers, idle, prev_end - first_start, first_start


def schedule_counts(
    schedule: Schedule, rules: Iterable[IncompatibilityRule]
) -> ScheduleCounts:
    """Every count fitness and metrics read, from one ``walk_picks`` call.

    One pass over the assignments builds the picks in act order and the
    acts' exams, for ``rule_checks``.  The counts equal the oracle's in
    ``tests/oracle.py``: ``overlaps``, ``breaches``, ``trips`` and
    ``transfers`` are the lengths of ``find_overlaps``,
    ``check_incompatibilities``, ``segment_trips`` and
    ``check_travel_gaps``, and ``idle`` is ``idle_minutes`` of the start
    order.  ``span`` runs from the first start to the end of the last pick
    in start order, and ``first_start`` is the first start.
    """
    exams: list[str] = []
    by_position: list[Pick] = []
    for _, (_, exam, facility, _, _, start, duration) in schedule.assignments:
        exams.append(exam)
        by_position.append((start, start + duration, facility))
    return ScheduleCounts(*walk_picks(by_position, rule_checks(rules, exams)))


def optimal_act_order(
    acts: Sequence[str], rules: Iterable[IncompatibilityRule]
) -> tuple[int, ...]:
    """Order act indices so that rule-implied predecessors come first.

    ``acts`` holds each act's exam.  The edges are the non-symmetric checks
    ``(i, j)`` of ``rule_checks(rules, acts)``, the checks the GA
    scores, each putting act ``i`` before act ``j``; BOTH constrains the
    gap, not the order.  Kahn's topological sort then places the
    lowest-index ready act first.  If the rules contradict each other the
    leftover (cyclic) acts are appended in request order; the output is a
    permutation of all act indices in every case.
    """
    n = len(acts)
    edges = {(i, j) for i, j, _, symmetric in rule_checks(rules, acts) if not symmetric}
    indegree = [0] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        successors[i].append(j)
        indegree[j] += 1

    order: list[int] = []
    ready = [i for i in range(n) if not indegree[i]]  # sorted, so a heap
    while ready:
        node = heappop(ready)
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if not indegree[succ]:
                heappush(ready, succ)
    # An act is left over exactly when some predecessor never was placed.
    order.extend(i for i in range(n) if indegree[i])
    return tuple(order)
