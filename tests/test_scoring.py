"""The compiled evaluator and the one scoring pass against the checker oracle, exactly."""

import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medsched import constraints, ga
from medsched.constraints import schedule_counts
from medsched.datagen import WorldConfig, generate_request
from medsched.fitness import compute_penalties, fitness
from medsched.bench import GA_ALGORITHMS
from medsched.ga import (
    GAConfig,
    Individual,
    SearchSpace,
    decode,
    evolve,
    filter_search_space,
    make_evaluator,
)
from medsched.metrics import solution_metrics
from medsched.model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    RuleLogic,
    Schedule,
    ScheduleRequest,
)

from conftest import make_slot, reference_metrics, reference_penalties
from oracle import (
    check_incompatibilities,
    check_travel_gaps,
    find_overlaps,
    idle_minutes,
    segment_trips,
)

EXAMS = ("E01", "E02", "E03")


def reference_evaluator(space, request, rules):
    rules = tuple(rules)

    def evaluate(individual):
        schedule = decode(individual, space)
        return fitness(reference_penalties(schedule, request, rules))

    return evaluate


def assert_exact(space, request, rules, genes):
    individual = Individual(tuple(genes))
    expected = reference_evaluator(space, request, rules)(individual)
    assert make_evaluator(space, request, rules)(individual) == expected


def rule(first, second, logic, gap):
    return IncompatibilityRule(first=first, second=second, logic=logic, gap_minutes=gap)


def raw_slots(exams, first_day):
    """(exam, day, half hour, duration, facility) of a slot on ``first_day`` or later."""
    return st.tuples(
        st.sampled_from(exams),
        st.integers(first_day, 3),
        st.integers(16, 40),
        st.sampled_from((30, 60, 90)),
        st.sampled_from(("F1", "F2")),
    )


@st.composite
def scoring_cases(draw):
    # Half-hour grid, two facilities and few exams, so equal starts, shared
    # slots, back-to-back slots and gaps of exactly 120 and 180 minutes occur.
    request = ScheduleRequest(
        acts=tuple(draw(st.lists(st.sampled_from(EXAMS), min_size=1, max_size=5))),
        start_day=draw(st.integers(0, 2)),
    )
    # One slot per act on or after the start day, so no exam has fewer
    # candidates than acts, then up to 13 more on any day, all in a drawn order.
    exams = list(dict.fromkeys(request.acts))
    fields = [draw(raw_slots([exam], request.start_day)) for exam in request.acts]
    fields += draw(st.lists(raw_slots(exams, 0), max_size=13))
    fields = draw(st.permutations(fields))
    slots = [
        make_slot(
            id=f"S{i}",
            exam=exam,
            start=day * MINUTES_PER_DAY + 30 * half_hour,
            duration=duration,
            facility=facility,
        )
        for i, (exam, day, half_hour, duration, facility) in enumerate(fields)
    ]
    pairs = [(a, b) for a in EXAMS for b in EXAMS if a != b]
    rules = draw(
        st.lists(
            st.builds(
                lambda pair, logic, gap: rule(*pair, logic, gap),
                st.sampled_from(pairs),
                st.sampled_from(list(RuleLogic)),
                st.sampled_from((30, 60, 120, 180, 1440)),
            ),
            max_size=4,
        )
    )
    if rules and draw(st.booleans()):
        rules.append(rules[0])
    space = filter_search_space(slots, request)
    genes = [draw(st.integers(0, len(block) - 1)) for block in space.per_act_slots]
    return space, request, tuple(rules), genes


class TestMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(scoring_cases())
    def test_property(self, case):
        assert_exact(*case)

    def test_random_genomes_on_default_world(self, default_world):
        rng = random.Random(5)
        for seed in range(5):
            request = generate_request(
                list(default_world.exams), default_world.config, 5, seed=seed
            )
            space = filter_search_space(default_world.slots, request)
            compiled = make_evaluator(space, request, default_world.rules)
            reference = reference_evaluator(space, request, default_world.rules)
            for _ in range(300):
                genes = tuple(rng.randrange(len(block)) for block in space.per_act_slots)
                individual = Individual(genes)
                assert compiled(individual) == reference(individual)

    def test_repeated_exam_acts_share_one_slot(self):
        shared = (make_slot("A", exam="E01", start=540), make_slot("B", exam="E01", start=600))
        space = SearchSpace(per_act_slots=(shared, shared))
        request = ScheduleRequest(acts=("E01", "E01"))
        for genes in ((0, 0), (1, 1), (0, 1), (1, 0)):
            assert_exact(space, request, (), genes)

    def test_single_candidate_blocks(self):
        # Acts 1 and 2 share their one slot, so the only genome overlaps.
        space = SearchSpace(
            per_act_slots=(
                (make_slot("A", exam="E01"),),
                (make_slot("B", exam="E02"),),
                (make_slot("B", exam="E02"),),
            )
        )
        assert_exact(space, ScheduleRequest(acts=("E01", "E02", "E02")), (), (0, 0, 0))

    def test_equal_starts_ordered_by_id(self):
        # Sorted by id, act 1 ("A", F2) comes before act 0 ("B", F1): one
        # transfer then a same-facility wait, rather than two transfers.
        space = SearchSpace(
            per_act_slots=(
                (make_slot("B", exam="E01", facility="F1", start=540),),
                (make_slot("A", exam="E02", facility="F2", start=540),),
                (make_slot("C", exam="E03", facility="F1", start=600),),
            )
        )
        request = ScheduleRequest(acts=("E01", "E02", "E03"))
        assert_exact(space, request, (), (0, 0, 0))

    @pytest.mark.parametrize("logic", list(RuleLogic))
    @pytest.mark.parametrize(
        "second_start", [420, 480, 510, 540, 570, 600, 630, 690, 720]
    )
    def test_rule_logic_and_gap(self, logic, second_start):
        space = SearchSpace(
            per_act_slots=(
                (make_slot("A", exam="E01", start=600),),
                (make_slot("B", exam="E02", start=second_start),),
            )
        )
        request = ScheduleRequest(acts=("E01", "E02"))
        rules = (rule("E01", "E02", logic, 60),)
        assert_exact(space, request, rules, (0, 0))
        assert_exact(space, request, rules + rules, (0, 0))

    def test_both_rule_with_equal_start_and_end(self):
        space = SearchSpace(
            per_act_slots=(
                (make_slot("A", exam="E01", facility="F1", start=600),),
                (make_slot("B", exam="E02", facility="F2", start=600),),
            )
        )
        request = ScheduleRequest(acts=("E01", "E02"))
        for rules in (
            (rule("E01", "E02", RuleLogic.BOTH, 30),),
            (rule("E02", "E01", RuleLogic.BOTH, 30),) * 2,
        ):
            assert_exact(space, request, rules, (0, 0))

    @pytest.mark.parametrize("gap", [119, 120, 121, 179, 180, 181])
    @pytest.mark.parametrize("facility", ["F1", "F2"])
    def test_trip_and_travel_thresholds(self, gap, facility):
        space = SearchSpace(
            per_act_slots=(
                (make_slot("A", exam="E01", facility="F1", start=540),),
                (make_slot("B", exam="E02", facility=facility, start=570 + gap),),
            )
        )
        assert_exact(space, ScheduleRequest(acts=("E01", "E02")), (), (0, 0))

    @pytest.mark.parametrize("start_day", [0, 1, 3])
    def test_lead_from_start_day(self, start_day):
        slots = [make_slot(f"S{day}", exam="E01", start=day * MINUTES_PER_DAY + 540) for day in range(5)]
        request = ScheduleRequest(acts=("E01",), start_day=start_day)
        space = filter_search_space(slots, request)
        for gene in range(len(space.per_act_slots[0])):
            assert_exact(space, request, (), (gene,))

    def test_block_with_mixed_exams_rejected(self):
        # Only hand-built spaces mix exams in a block; rules would apply per pick.
        space = SearchSpace(
            per_act_slots=(
                (make_slot("A", exam="E01", start=540), make_slot("B", exam="E03", start=540)),
                (make_slot("C", exam="E02", start=570),),
            )
        )
        request = ScheduleRequest(acts=("E01", "E02"))
        rules = (rule("E01", "E02", RuleLogic.BEFORE, 60),)
        with pytest.raises(ValueError, match="one exam"):
            make_evaluator(space, request, rules)


def recording_walk(original, calls):
    """``original`` that also records each call's ``(picks, checks, by_position)``.

    ``walk_picks`` reads ``by_position`` only through the checks, so without
    checks it is recorded, and handed on, as ``None``.
    """

    def walk(picks, checks, by_position):
        by_position = list(by_position) if checks else None
        calls.append((list(picks), list(checks), by_position))
        return original(picks, checks, by_position)

    return walk


class TestOnePickLayout:
    # The evaluator and ``schedule_counts`` build their picks separately;
    # this holds them to one layout and one order, argument for argument.
    @settings(max_examples=500, deadline=None)
    @given(scoring_cases())
    def test_both_scorers_walk_the_same_picks(self, case):
        space, request, rules, genes = case
        evaluate = make_evaluator(space, request, rules)
        calls = []
        with patch.object(ga, "walk_picks", recording_walk(ga.walk_picks, calls)):
            evaluate(Individual(tuple(genes)))
        with patch.object(
            constraints, "walk_picks", recording_walk(constraints.walk_picks, calls)
        ):
            schedule_counts(decode(genes, space), rules)
        evaluated, counted = calls
        assert evaluated == counted


def assert_pass_matches_oracle(schedule, request, rules):
    counts = schedule_counts(schedule, rules)
    ordered = schedule.sorted_by_start()
    assert counts.overlaps == len(find_overlaps(schedule))
    assert counts.breaches == len(check_incompatibilities(schedule, rules))
    assert counts.trips == len(segment_trips(schedule))
    assert counts.transfers == len(check_travel_gaps(schedule))
    assert counts.idle == idle_minutes(ordered)
    assert counts.first_start == ordered[0][1].start
    assert counts.span == ordered[-1][1].end - ordered[0][1].start
    penalties = compute_penalties(schedule, request, rules)
    assert penalties == reference_penalties(schedule, request, rules)
    assert penalties.total() == reference_penalties(schedule, request, rules).total()
    act_count = len(request.acts)
    assert solution_metrics(schedule, rules, act_count) == reference_metrics(schedule, rules, act_count)


@st.composite
def hand_built_cases(draw):
    # Full schedules of any slots from a small shared pool, in any order and
    # on any day, with the request's acts set to those slots' exams.  A slot
    # may be shared by two acts, and with few starts equal starts are
    # common; rules may repeat.
    pool = [
        make_slot(
            f"S{i}",
            exam=draw(st.sampled_from(EXAMS)),
            start=draw(st.sampled_from((0, MINUTES_PER_DAY))) + 30 * draw(st.integers(18, 22)),
            duration=draw(st.sampled_from((30, 60, 90))),
            facility=draw(st.sampled_from(("F1", "F2"))),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    slots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    pairs = [(a, b) for a in EXAMS for b in EXAMS if a != b]
    rules = draw(
        st.lists(
            st.builds(
                lambda pair, logic, gap: rule(*pair, logic, gap),
                st.sampled_from(pairs),
                st.sampled_from(list(RuleLogic)),
                st.sampled_from((30, 60, 120, 1440)),
            ),
            max_size=3,
        )
    )
    if rules:
        rules += draw(st.lists(st.sampled_from(rules), max_size=2))
    request = ScheduleRequest(
        acts=tuple(slot.exam for slot in slots), start_day=draw(st.integers(0, 2))
    )
    return Schedule(assignments=tuple(enumerate(slots))), request, tuple(rules)


# BOTH rules over two acts with one start: run on every test run.  The
# other hand-built cases have their own tests below, with exact counts.
BOTH_EQUAL_STARTS = (
    Schedule(
        assignments=(
            (0, make_slot("A", exam="E01", facility="F1", start=600, duration=30)),
            (1, make_slot("B", exam="E02", facility="F2", start=600, duration=60)),
        )
    ),
    ScheduleRequest(acts=("E01", "E02")),
    (rule("E02", "E01", RuleLogic.BOTH, 30), rule("E01", "E02", RuleLogic.BOTH, 30)),
)


class TestPassMatchesOracle:
    """``schedule_counts`` and its callers equal the checkers composed."""

    @settings(max_examples=1000, deadline=None)
    @given(scoring_cases())
    def test_property(self, case):
        space, request, rules, genes = case
        schedule = decode(Individual(tuple(genes)), space)
        assert_pass_matches_oracle(schedule, request, rules)

    @settings(max_examples=1000, deadline=None)
    @given(hand_built_cases())
    @example(BOTH_EQUAL_STARTS)
    def test_hand_built_property(self, case):
        assert_pass_matches_oracle(*case)

    def test_equal_starts_ordered_by_id(self):
        # Sorted by id, "A" at F2 comes first and "B" at F1 ends last, so the
        # span ends at B's end although C, listed first, ends later.
        schedule = Schedule(
            assignments=(
                (0, make_slot("C", exam="E01", facility="F1", start=540, duration=90)),
                (1, make_slot("A", exam="E02", facility="F2", start=540, duration=30)),
                (2, make_slot("B", exam="E03", facility="F1", start=570, duration=30)),
            )
        )
        assert_pass_matches_oracle(schedule, ScheduleRequest(acts=("E01", "E02", "E03")), ())
        assert schedule_counts(schedule, ()).span == 60

    def test_shared_slot_and_repeated_rules(self):
        shared = make_slot("A", exam="E01", start=540)
        other = make_slot("B", exam="E02", start=600)
        schedule = Schedule(assignments=((0, shared), (1, shared), (2, other)))
        request = ScheduleRequest(acts=("E01", "E01", "E02"))
        rules = (rule("E01", "E02", RuleLogic.BEFORE, 60),) * 2
        assert_pass_matches_oracle(schedule, request, rules)
        assert schedule_counts(schedule, rules)[:2] == (1, 4)


# Overlap chains, one act per (start, duration, facility) slot, each with the
# number of overlapping pairs the reference counts.
OVERLAP_CHAINS = {
    "long_pick_overlaps_next_two": (
        [(540, 120, "F1"), (570, 130, "F1"), (600, 30, "F1"), (670, 30, "F1")],
        4,
    ),
    "nested_intervals": ([(540, 180, "F1"), (570, 90, "F1"), (600, 30, "F1")], 3),
    "identical_intervals": ([(540, 60, "F1")] * 3 + [(600, 30, "F1")], 3),
    "equal_starts_two_facilities": (
        [(540, 60, "F1"), (540, 30, "F2"), (555, 30, "F1"), (540, 90, "F2")],
        6,
    ),
    "chain_broken_by_back_to_back_pair": (
        [(540, 60, "F1"), (570, 60, "F1"), (630, 30, "F1"), (645, 60, "F2")],
        2,
    ),
}


class TestOverlapChains:
    @pytest.mark.parametrize("case", list(OVERLAP_CHAINS))
    def test_matches_reference(self, case):
        layout, overlaps = OVERLAP_CHAINS[case]
        exams = [f"E{act:02d}" for act in range(len(layout))]
        space = SearchSpace(
            per_act_slots=tuple(
                (make_slot(f"S{act}", exam=exam, start=start, duration=duration, facility=facility),)
                for act, (exam, (start, duration, facility)) in enumerate(zip(exams, layout))
            )
        )
        request = ScheduleRequest(acts=tuple(exams))
        genes = (0,) * len(layout)
        schedule = decode(Individual(genes), space)
        assert len(find_overlaps(schedule)) == overlaps
        assert_exact(space, request, (), genes)


class TestInputGuard:
    SPACE = SearchSpace(
        per_act_slots=(
            (make_slot("A", exam="E01", start=540), make_slot("B", exam="E01", start=600)),
            (make_slot("C", exam="E02", start=700),),
        )
    )

    @pytest.mark.parametrize("acts", [("E01",), ("E01", "E02", "E02")])
    def test_space_for_another_act_count_rejected(self, acts):
        # Every act of the space is booked, so its act count must be the
        # request's, as ``compute_penalties`` requires of a schedule.
        with pytest.raises(ValueError, match=f"space has 2 acts for {len(acts)} requested"):
            make_evaluator(self.SPACE, ScheduleRequest(acts=acts), ())


@pytest.mark.parametrize("algorithm", GA_ALGORITHMS)
def test_evolve_unchanged_by_compiled_evaluator(default_world, monkeypatch, algorithm):
    assert default_world.config == WorldConfig()
    request = generate_request(
        list(default_world.exams), default_world.config, 5, seed=7
    )
    space = filter_search_space(default_world.slots, request)
    compiled = evolve(space, request, default_world.rules, GAConfig(), algorithm, 11)
    monkeypatch.setattr(ga, "make_evaluator", reference_evaluator)
    reference = evolve(space, request, default_world.rules, GAConfig(), algorithm, 11)
    assert compiled == reference
