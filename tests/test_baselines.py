"""Comparison heuristics: greedy FCFS and uniform random choice."""

import random

from medsched.baselines import fcfs_schedule, random_schedule
from medsched.ga import Individual, SearchSpace, decode, uniform_genes
from medsched.model import MINUTES_PER_DAY, ScheduleRequest

from conftest import make_slot
from oracle import find_overlaps


def block(exam, specs):
    """Slots for one act from (id, day, minute) triples, pre-sorted by start."""
    slots = tuple(
        make_slot(id=sid, exam=exam, start=day * MINUTES_PER_DAY + minute)
        for sid, day, minute in specs
    )
    return tuple(sorted(slots, key=lambda s: (s.start, s.id)))


class TestFcfs:
    def test_single_act_takes_earliest(self):
        space = SearchSpace(
            per_act_slots=(block("E01", [("B", 0, 600), ("A", 0, 540)]),)
        )
        schedule = fcfs_schedule(space)
        assert [slot.id for _, slot in schedule.assignments] == ["A"]

    def test_simultaneous_earliest_slots_collide(self):
        space = SearchSpace(
            per_act_slots=(
                block("E01", [("A", 0, 540)]),
                block("E02", [("B", 0, 540)]),
            )
        )
        schedule = fcfs_schedule(space)
        assert len(schedule) == 2
        assert len(find_overlaps(schedule)) == 1

    def test_independent_acts_get_own_earliest(self):
        space = SearchSpace(
            per_act_slots=(
                block("E01", [("A", 0, 540), ("C", 1, 540)]),
                block("E02", [("B", 0, 900)]),
            )
        )
        schedule = fcfs_schedule(space)
        assert [slot.id for _, slot in schedule.assignments] == ["A", "B"]

    def test_slot_never_booked_twice(self):
        shared = block("E01", [("A", 0, 540), ("B", 0, 600)])
        space = SearchSpace(per_act_slots=(shared, shared))
        schedule = fcfs_schedule(space)
        assert [slot.id for _, slot in schedule.assignments] == ["A", "B"]

    def test_exhausted_block_leaves_act_unassigned(self):
        # Two acts of one exam share a single slot: the second goes unbooked.
        shared = block("E01", [("A", 0, 540)])
        space = SearchSpace(per_act_slots=(shared, shared))
        schedule = fcfs_schedule(space)
        assert [act for act, _ in schedule.assignments] == [0]

    def test_deterministic(self, default_world):
        from medsched.ga import filter_search_space

        request = ScheduleRequest(acts=("E03", "E17", "E42"))
        space = filter_search_space(default_world.slots, request)
        assert fcfs_schedule(space) == fcfs_schedule(space)


class TestRandomChoice:
    def test_singleton_blocks_deterministic(self):
        space = SearchSpace(
            per_act_slots=(
                block("E01", [("A", 0, 540)]),
                block("E02", [("B", 1, 540)]),
            )
        )
        schedule = random_schedule(space, random.Random(0))
        assert [slot.id for _, slot in schedule.assignments] == ["A", "B"]

    def test_same_seed_same_schedule(self):
        space = SearchSpace(
            per_act_slots=(
                block("E01", [("A", 0, 540), ("B", 0, 600), ("C", 1, 540)]),
                block("E02", [("D", 0, 700), ("E", 2, 540)]),
            )
        )
        assert random_schedule(space, random.Random(7)) == random_schedule(
            space, random.Random(7)
        )

    def test_selection_uniform_within_3_sigma(self):
        space = SearchSpace(
            per_act_slots=(block("E01", [(f"S{i}", i, 540) for i in range(5)]),)
        )
        rng = random.Random(42)
        counts = {f"S{i}": 0 for i in range(5)}
        n = 10_000
        for _ in range(n):
            (_, slot), = random_schedule(space, rng).assignments
            counts[slot.id] += 1
        sigma = (n * 0.2 * 0.8) ** 0.5
        for count in counts.values():
            assert abs(count - n / 5) <= 3 * sigma

    def test_identical_to_unordered_single_individual(self):
        space = SearchSpace(
            per_act_slots=(
                block("E01", [("A", 0, 540), ("B", 0, 600), ("C", 1, 540)]),
                block("E02", [("D", 0, 700), ("E", 2, 540)]),
                block("E03", [("F", 3, 540)]),
            )
        )
        for seed in range(20):
            via_baseline = random_schedule(space, random.Random(seed))
            genes = uniform_genes(space, random.Random(seed))
            via_ga = decode(Individual(genes), space)
            assert via_baseline == via_ga
