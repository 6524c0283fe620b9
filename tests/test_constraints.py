"""The oracle's checkers against hand-evaluated cases and brute force, and act ordering."""

import graphlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.constraints import TRAVEL_GAP_MINUTES, TRIP_GAP_MINUTES, optimal_act_order
from medsched.model import MINUTES_PER_DAY, IncompatibilityRule, RuleLogic, Schedule

from conftest import make_schedule, make_slot
from oracle import (
    check_incompatibilities,
    check_travel_gaps,
    find_overlaps,
    idle_minutes,
    segment_trips,
    slots_overlap,
)


def rule(first, second, logic, gap):
    return IncompatibilityRule(first=first, second=second, logic=logic, gap_minutes=gap)


class TestFindOverlaps:
    def test_disjoint_and_touching_are_clean(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=600, duration=60),
            make_slot(id="C", start=800, duration=30),
        )
        assert find_overlaps(schedule) == []

    def test_three_mutually_overlapping_slots_give_three_violations(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=90),
            make_slot(id="B", start=560, duration=90),
            make_slot(id="C", start=580, duration=90),
        )
        violations = find_overlaps(schedule)
        assert len(violations) == 3
        assert {frozenset(v) for v in violations} == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        }

    def test_reports_act_indices_not_positions(self):
        schedule = Schedule(
            assignments=(
                (7, make_slot(id="A", start=540, duration=60)),
                (3, make_slot(id="B", start=570, duration=60)),
            )
        )
        (violation,) = find_overlaps(schedule)
        assert set(violation) == {7, 3}


class TestCheckIncompatibilities:
    def test_before_exact_boundary_satisfied(self):
        # A ends 10:00, B starts 11:00, rule needs 60 minutes.
        schedule = make_schedule(
            make_slot(id="A", exam="E01", start=540, duration=60),
            make_slot(id="B", exam="E02", start=660, duration=30),
        )
        rules = [rule("E01", "E02", RuleLogic.BEFORE, 60)]
        assert check_incompatibilities(schedule, rules) == []

    def test_before_violated_by_reversed_order(self):
        # The "second" exam lands a day before the "first": order itself broken.
        schedule = make_schedule(
            make_slot(id="A", exam="E01", start=MINUTES_PER_DAY + 540, duration=60),
            make_slot(id="B", exam="E02", start=540, duration=30),
        )
        rules = [rule("E01", "E02", RuleLogic.BEFORE, 60)]
        assert check_incompatibilities(schedule, rules) == [(0, 1)]

    def test_after_mirrors_before(self):
        # "E01 after E02": E02 must finish 60 minutes before E01 starts.
        ok = make_schedule(
            make_slot(id="A", exam="E01", start=660, duration=30),
            make_slot(id="B", exam="E02", start=540, duration=60),
        )
        bad = make_schedule(
            make_slot(id="A", exam="E01", start=540, duration=30),
            make_slot(id="B", exam="E02", start=600, duration=60),
        )
        rules = [rule("E01", "E02", RuleLogic.AFTER, 60)]
        assert check_incompatibilities(ok, rules) == []
        assert len(check_incompatibilities(bad, rules)) == 1

    def test_both_full_day_gap(self):
        # A ends day 0 14:00, B starts day 1 13:00: 1380 < 1440.
        slot_a = make_slot(id="A", exam="E01", start=780, duration=60)
        slot_b = make_slot(id="B", exam="E02", start=MINUTES_PER_DAY + 780, duration=30)
        rules = [rule("E01", "E02", RuleLogic.BOTH, 1440)]
        assert len(check_incompatibilities(make_schedule(slot_a, slot_b), rules)) == 1
        slot_b_later = make_slot(
            id="B", exam="E02", start=MINUTES_PER_DAY + 840, duration=30
        )
        assert check_incompatibilities(make_schedule(slot_a, slot_b_later), rules) == []

    def test_both_is_order_insensitive(self):
        rules = [rule("E01", "E02", RuleLogic.BOTH, 60)]
        first_then_second = make_schedule(
            make_slot(id="A", exam="E01", start=540, duration=30),
            make_slot(id="B", exam="E02", start=660, duration=30),
        )
        second_then_first = make_schedule(
            make_slot(id="A", exam="E01", start=660, duration=30),
            make_slot(id="B", exam="E02", start=540, duration=30),
        )
        assert check_incompatibilities(first_then_second, rules) == []
        assert check_incompatibilities(second_then_first, rules) == []

    def test_rule_without_matching_pair_is_vacuous(self):
        schedule = make_schedule(make_slot(id="A", exam="E01", start=540))
        rules = [rule("E01", "E02", RuleLogic.BEFORE, 60)]
        assert check_incompatibilities(schedule, rules) == []

    def test_one_violation_per_rule_and_pair(self):
        # Two rules over the same pair both fail: penalties stack per rule.
        schedule = make_schedule(
            make_slot(id="A", exam="E01", start=540, duration=30),
            make_slot(id="B", exam="E02", start=580, duration=30),
        )
        rules = [
            rule("E01", "E02", RuleLogic.BEFORE, 60),
            rule("E02", "E01", RuleLogic.AFTER, 60),
        ]
        assert len(check_incompatibilities(schedule, rules)) == 2


class TestSegmentTrips:
    def test_single_facility_small_gaps_is_one_trip(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=600, duration=30),  # gap 30
            make_slot(id="C", start=690, duration=30),  # gap 60
        )
        assert len(segment_trips(schedule)) == 1

    def test_facility_change_starts_new_trip(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=30),
            make_slot(id="B", facility="F2", start=570, duration=30),
        )
        segments = segment_trips(schedule)
        assert len(segments) == 2
        assert [t[0][1].facility for t in segments] == ["F1", "F2"]

    def test_trip_gap_boundary_is_strict(self):
        def with_gap(gap):
            return make_schedule(
                make_slot(id="A", start=540, duration=30),
                make_slot(id="B", start=570 + gap, duration=30),
            )

        assert len(segment_trips(with_gap(TRIP_GAP_MINUTES))) == 1
        assert len(segment_trips(with_gap(TRIP_GAP_MINUTES + 1))) == 2

    def test_return_to_facility_counts_again(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=30),
            make_slot(id="B", facility="F2", start=800, duration=30),
            make_slot(id="C", facility="F1", start=1100, duration=30),
        )
        segments = segment_trips(schedule)
        assert [t[0][1].facility for t in segments] == ["F1", "F2", "F1"]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            segment_trips(Schedule(assignments=()))

    def test_segments_partition_chronological_order(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=30),
            make_slot(id="B", facility="F1", start=600, duration=30),
            make_slot(id="C", facility="F2", start=900, duration=30),
        )
        segments = segment_trips(schedule)
        flattened = [pair for trip in segments for pair in trip]
        assert flattened == schedule.sorted_by_start()


class TestCheckTravelGaps:
    def test_boundary_gap_satisfies(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=60),
            make_slot(id="B", facility="F2", start=600 + TRAVEL_GAP_MINUTES, duration=30),
        )
        assert check_travel_gaps(schedule) == []

    def test_two_hour_gap_violates(self):
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=60),
            make_slot(id="B", facility="F2", start=720, duration=30),
        )
        assert check_travel_gaps(schedule) == [(0, 1)]

    def test_single_facility_never_violates(self):
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=60),
            make_slot(id="B", start=601, duration=30),
        )
        assert check_travel_gaps(schedule) == []

    def test_only_consecutive_pairs_checked(self):
        # F1 at 09:00, F1 at 14:00, F2 at 19:00: the F1->F2 hop at range ends is fine.
        schedule = make_schedule(
            make_slot(id="A", facility="F1", start=540, duration=30),
            make_slot(id="B", facility="F1", start=840, duration=30),
            make_slot(id="C", facility="F2", start=1140, duration=30),
        )
        assert check_travel_gaps(schedule) == []


class TestIdleMinutes:
    def test_sums_positive_gaps_only(self):
        # Gaps: 30 (A->B), -30 (B overlaps C), 0 (C touches D), 100 (D->E).
        schedule = make_schedule(
            make_slot(id="A", start=540, duration=30),
            make_slot(id="B", start=600, duration=60),
            make_slot(id="C", start=630, duration=30),
            make_slot(id="D", start=660, duration=20),
            make_slot(id="E", start=780, duration=30),
        )
        assert idle_minutes(schedule.sorted_by_start()) == 130

    def test_fewer_than_two_assignments_is_zero(self):
        assert idle_minutes(()) == 0
        assert idle_minutes(make_schedule(make_slot(id="A")).sorted_by_start()) == 0


def precedence_edges(acts, rules):
    """Act pairs (i, j) that some BEFORE or AFTER rule puts in that order."""
    edges = set()
    for r in rules:
        if r.logic is RuleLogic.BOTH:
            continue
        pred, succ = (r.first, r.second) if r.logic is RuleLogic.BEFORE else (r.second, r.first)
        for i, exam_i in enumerate(acts):
            for j, exam_j in enumerate(acts):
                if i != j and exam_i == pred and exam_j == succ:
                    edges.add((i, j))
    return edges


def has_cycle(acts, rules):
    graph = {act: set() for act in range(len(acts))}
    for pred, succ in precedence_edges(acts, rules):
        graph[succ].add(pred)
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError:
        return True
    return False


class TestOptimalActOrder:
    def test_single_before_edge(self):
        # Request lists B then A; rule says A goes first.
        acts, rules = ("E02", "E01"), [rule("E01", "E02", RuleLogic.BEFORE, 60)]
        assert optimal_act_order(acts, rules) == (1, 0)
        assert not has_cycle(acts, rules)

    def test_no_rules_preserves_request_order(self):
        assert optimal_act_order(("E05", "E03", "E01"), []) == (0, 1, 2)

    def test_after_reverses_edge_direction(self):
        order = optimal_act_order(("E01", "E02"), [rule("E01", "E02", RuleLogic.AFTER, 60)])
        assert order == (1, 0)

    def test_both_does_not_constrain_order(self):
        order = optimal_act_order(("E02", "E01"), [rule("E01", "E02", RuleLogic.BOTH, 60)])
        assert order == (0, 1)

    def test_cycle_degrades_to_request_order(self):
        rules = [
            rule("E01", "E02", RuleLogic.BEFORE, 60),
            rule("E02", "E01", RuleLogic.BEFORE, 60),
        ]
        assert optimal_act_order(("E01", "E02"), rules) == (0, 1)
        assert has_cycle(("E01", "E02"), rules)

    def test_ties_break_toward_lower_index(self):
        # E03 must precede E01; E02 is unconstrained and keeps its slot by index.
        order = optimal_act_order(
            ("E01", "E02", "E03"), [rule("E03", "E01", RuleLogic.BEFORE, 60)]
        )
        assert order == (1, 2, 0)

    def test_repeated_exams_all_constrained(self):
        order = optimal_act_order(
            ("E01", "E02", "E01"), [rule("E01", "E02", RuleLogic.BEFORE, 60)]
        )
        assert order == (0, 2, 1)

    @settings(max_examples=1000, deadline=None)
    @given(
        acts=st.lists(
            st.sampled_from(["E01", "E02", "E03", "E04"]), min_size=1, max_size=5
        ),
        rule_specs=st.lists(
            st.tuples(
                st.sampled_from(["E01", "E02", "E03", "E04"]),
                st.sampled_from(["E01", "E02", "E03", "E04"]),
                st.sampled_from(list(RuleLogic)),
            ),
            max_size=6,
        ),
    )
    def test_always_a_permutation(self, acts, rule_specs):
        rules = [
            rule(a, b, logic, 30) for a, b, logic in rule_specs if a != b
        ]
        order = optimal_act_order(acts, rules)
        assert sorted(order) == list(range(len(acts)))
        if not has_cycle(acts, rules):
            # Every edge respected: predecessors appear earlier in the order.
            position = {act: k for k, act in enumerate(order)}
            for i, j in precedence_edges(acts, rules):
                assert position[i] < position[j]


# Brute-force re-derivations used as oracles for random schedules.


def naive_overlaps(schedule):
    pairs = schedule.sorted_by_start()
    found = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if slots_overlap(pairs[i][1], pairs[j][1]):
                found.append(frozenset({pairs[i][0], pairs[j][0]}))
    return found


def naive_incompatibilities(schedule, rules):
    found = []
    for r in rules:
        for act_1, slot_1 in schedule.assignments:
            for act_2, slot_2 in schedule.assignments:
                if act_1 == act_2 or slot_1.exam != r.first or slot_2.exam != r.second:
                    continue
                if r.logic is RuleLogic.BEFORE:
                    ok = slot_2.start - slot_1.end >= r.gap_minutes
                elif r.logic is RuleLogic.AFTER:
                    ok = slot_1.start - slot_2.end >= r.gap_minutes
                else:
                    lo, hi = sorted(
                        [slot_1, slot_2], key=lambda s: (s.start, s.end)
                    )
                    ok = hi.start - lo.end >= r.gap_minutes
                if not ok:
                    found.append((act_1, act_2))
    return found


def naive_travel_gaps(schedule):
    ordered = schedule.sorted_by_start()
    return [
        (a[0], b[0])
        for a, b in zip(ordered, ordered[1:])
        if a[1].facility != b[1].facility and b[1].start - a[1].end < 180
    ]


@st.composite
def random_schedules(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    slots = []
    for i in range(n):
        duration = draw(st.sampled_from([15, 30, 60, 90]))
        day = draw(st.integers(min_value=0, max_value=2))
        minute = draw(st.integers(min_value=0, max_value=MINUTES_PER_DAY - duration))
        slots.append(
            make_slot(
                id=f"S{i}",
                exam=draw(st.sampled_from(["E01", "E02", "E03"])),
                facility=draw(st.sampled_from(["F1", "F2"])),
                start=day * MINUTES_PER_DAY + minute,
                duration=duration,
            )
        )
    return make_schedule(*slots)


random_rules = st.lists(
    st.tuples(
        st.sampled_from(["E01", "E02", "E03"]),
        st.sampled_from(["E01", "E02", "E03"]),
        st.sampled_from(list(RuleLogic)),
        st.sampled_from([30, 60, 1440]),
    )
    .filter(lambda entry: entry[0] != entry[1])
    .map(lambda entry: rule(*entry)),
    max_size=4,
)


class TestBruteForceEquivalence:
    @settings(max_examples=1000, deadline=None)
    @given(schedule=random_schedules())
    def test_overlaps_match(self, schedule):
        got = find_overlaps(schedule)
        got_pairs = sorted((frozenset(v) for v in got), key=sorted)
        assert got_pairs == sorted(naive_overlaps(schedule), key=sorted)

    @settings(max_examples=1000, deadline=None)
    @given(schedule=random_schedules(), rules=random_rules)
    def test_incompatibilities_match(self, schedule, rules):
        got = check_incompatibilities(schedule, rules)
        assert sorted(got) == sorted(naive_incompatibilities(schedule, rules))

    @settings(max_examples=1000, deadline=None)
    @given(schedule=random_schedules())
    def test_travel_gaps_match(self, schedule):
        got = check_travel_gaps(schedule)
        assert got == naive_travel_gaps(schedule)

    @settings(max_examples=1000, deadline=None)
    @given(schedule=random_schedules())
    def test_single_trip_iff_one_facility_and_small_gaps(self, schedule):
        trips = segment_trips(schedule)
        ordered = schedule.sorted_by_start()
        one_facility = len({slot.facility for _, slot in ordered}) == 1
        small_gaps = all(
            b.start - a.end <= 120 for (_, a), (_, b) in zip(ordered, ordered[1:])
        )
        assert (len(trips) == 1) == (one_facility and small_gaps)
        flattened = [pair for trip in trips for pair in trip]
        assert flattened == ordered
