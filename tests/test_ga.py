"""Evolutionary engine: encoding, operators, generation loop."""

import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
from bisect import bisect_left
from collections import Counter, OrderedDict
from dataclasses import fields, replace
from functools import lru_cache, partial
from statistics import fmean
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched import ga, model
from medsched.bench import GA_ALGORITHMS
from medsched.constraints import optimal_act_order
from medsched.datagen import WorldConfig, generate_request, generate_world
from medsched.fitness import compute_penalties, fitness
from medsched.ga import (
    GA_ORDERED,
    GA_UNORDERED,
    GAConfig,
    GenerationStats,
    Individual,
    SearchSpace,
    UnschedulableError,
    decode,
    evolve,
    filter_search_space,
    init_population,
    make_evaluator,
    next_generation,
    uniform_genes,
)
from medsched.model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    RuleLogic,
    Schedule,
    ScheduleRequest,
    SlotTable,
)
from medsched.worldio import load_world, save_world

from conftest import make_slot


def initial_population(space, algorithm, order, size, rng):
    """``init_population`` drawing from ``algorithm``'s initializer, as ``evolve`` does."""
    if algorithm == GA_ORDERED:
        draw = ga._initializer(space, order, rng)
    else:
        draw = partial(uniform_genes, space, rng)
    return init_population(draw, size)


def block(exam, day_minutes, facility="F1", duration=30):
    """Candidate slots for one act, one per (day, minute) pair."""
    return tuple(
        make_slot(
            id=f"{exam}-{i}",
            exam=exam,
            facility=facility,
            start=day * MINUTES_PER_DAY + minute,
            duration=duration,
        )
        for i, (day, minute) in enumerate(day_minutes)
    )


def toy_space():
    """Three acts, mixed facilities, enough spread for every penalty term."""
    return SearchSpace(
        per_act_slots=(
            block("E01", [(0, 540), (0, 720), (1, 540), (2, 540)]),
            block("E02", [(0, 540), (0, 900), (1, 720), (2, 720)], facility="F2"),
            block("E03", [(0, 600), (1, 900), (2, 900), (3, 540)]),
        )
    )


TOY_REQUEST = ScheduleRequest(acts=("E01", "E02", "E03"))
TOY_RULES = (
    IncompatibilityRule(first="E01", second="E03", logic=RuleLogic.BEFORE, gap_minutes=30),
)


class TestFilterSearchSpace:
    def test_filters_by_exam_and_start_day(self):
        slots = [
            make_slot(id="A", exam="E01", start=540),
            make_slot(id="B", exam="E01", start=2 * MINUTES_PER_DAY + 540),
            make_slot(id="C", exam="E02", start=540),
        ]
        space = filter_search_space(slots, ScheduleRequest(acts=("E01",), start_day=1))
        assert [s.id for s in space.per_act_slots[0]] == ["B"]

    def test_preference_filters(self):
        slots = [
            make_slot(id="A", exam="E01", facility="F1", practitioner="P1", start=540),
            make_slot(id="B", exam="E01", facility="F2", practitioner="P1", start=600),
            make_slot(id="C", exam="E01", facility="F1", practitioner="P2", start=660),
        ]
        by_facility = filter_search_space(
            slots,
            ScheduleRequest(acts=("E01",), preferred_facilities=frozenset({"F1"})),
        )
        assert [s.id for s in by_facility.per_act_slots[0]] == ["A", "C"]
        by_practitioner = filter_search_space(
            slots,
            ScheduleRequest(acts=("E01",), preferred_practitioners=frozenset({"P1"})),
        )
        assert [s.id for s in by_practitioner.per_act_slots[0]] == ["A", "B"]

    def test_blocks_sorted_by_start_then_id(self):
        slots = [
            make_slot(id="Z", exam="E01", start=600),
            make_slot(id="A", exam="E01", start=600),
            make_slot(id="M", exam="E01", start=540),
        ]
        space = filter_search_space(slots, ScheduleRequest(acts=("E01",)))
        assert [s.id for s in space.per_act_slots[0]] == ["M", "A", "Z"]

    def test_one_block_per_act_with_repeats(self):
        slots = [make_slot(id="A", exam="E01", start=540), make_slot(id="B", exam="E01", start=600)]
        space = filter_search_space(slots, ScheduleRequest(acts=("E01", "E01")))
        assert space.act_count == 2
        assert space.per_act_slots[0] == space.per_act_slots[1]

    def test_rejects_more_acts_than_slots(self):
        # Two acts would have to share the block's one slot.
        slots = [make_slot(id="A", exam="E01", start=540), make_slot(id="B", exam="E02")]
        request = ScheduleRequest(acts=("E01", "E02", "E01"), preferred_practitioners=frozenset({"P1"}))
        with pytest.raises(UnschedulableError) as error:
            filter_search_space(slots, request)
        assert str(error.value) == (
            "more acts than candidate slots for E01 (acts 2, slots 1) under practitioners=['P1']"
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_per_act_reference_or_names_the_empty_exams(self, data):
        # Requests vary start_day (past the slots' last day too), preference
        # sets and repeated acts (more, at times, than an exam's block has
        # slots), and name "E9", which no slot has.  One
        # table answers them all; any other iterable is indexed in a
        # throwaway table.  With at least ten slots, and "E9" one act in ten,
        # many requests filter to non-empty blocks too.
        slots = data.draw(st.lists(filter_slots(), min_size=10, max_size=40))
        table = SlotTable(slots)
        for request in data.draw(st.lists(filter_requests(), min_size=1, max_size=8)):
            assert_filters_like_reference(table, slots, request)
            assert_filters_like_reference(iter(slots), slots, request)


class TestWorldSlotIndex:
    """A world's ``SlotTable`` indexes its slots once and is otherwise a tuple."""

    def test_index_built_once_per_table(self):
        world = generate_world(WorldConfig(seed=11, horizon_days=3))
        requests = [
            generate_request(list(world.exams), world.config, 5, seed=seed)
            for seed in range(30)
        ]
        with patch.object(model, "_exam_index", wraps=model._exam_index) as build:
            first = [filter_search_space(world.slots, r) for r in requests]
            assert build.call_count == 1
            again = [filter_search_space(world.slots, r) for r in requests]
            assert build.call_count == 1
        assert again == first

    def test_day_zero_request_shares_the_index_tuple(self, default_world):
        request = ScheduleRequest(acts=("E03", "E01", "E03"))
        space = filter_search_space(default_world.slots, request)
        for exam, block in zip(request.acts, space.per_act_slots):
            assert block  # every exam has slots in the default world
            assert block is default_world.slots.exam_slots(exam)

    def test_replaced_slots_get_their_own_index(self):
        world = generate_world(WorldConfig(seed=11, horizon_days=3))
        request = generate_request(list(world.exams), world.config, 5, seed=1)
        filter_search_space(world.slots, request)
        for slots in (world.slots[:200], list(world.slots)[::-1]):
            other = replace(world, slots=slots)
            assert type(other.slots) is SlotTable
            assert other.slots is not world.slots
            assert vars(other.slots) == {}
            assert_filters_like_reference(other.slots, slots, request)

    def test_index_is_invisible(self, tmp_path):
        world = generate_world(WorldConfig(seed=11, horizon_days=3))
        save_world(world, tmp_path / "before.json")
        for seed in range(10):
            request = generate_request(list(world.exams), world.config, 5, seed=seed)
            filter_search_space(world.slots, request)
        assert vars(world.slots)
        loaded = load_world(tmp_path / "before.json")
        assert world == loaded
        assert hash(world) == hash(loaded)
        save_world(world, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
        copies = [
            pickle.loads(pickle.dumps(world, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.deepcopy(world), replace(world, slots=copy.copy(world.slots))]
        for other in copies:
            assert other == world
            assert type(other.slots) is SlotTable
            assert vars(other.slots) == {}


def reference_blocks(slots, request):
    """The per-act filter ``filter_search_space`` replaced: one scan per act."""
    slots = list(slots)
    facilities = request.preferred_facilities
    practitioners = request.preferred_practitioners
    blocks = []
    for exam in request.acts:
        block = [
            slot
            for slot in slots
            if slot.exam == exam
            and slot.day >= request.start_day
            and (facilities is None or slot.facility in facilities)
            and (practitioners is None or slot.practitioner in practitioners)
        ]
        block.sort(key=lambda slot: (slot.start, slot.id))
        blocks.append(tuple(block))
    return tuple(blocks)


def assert_filters_like_reference(filter_input, slots, request):
    """``filter_search_space`` returns the reference's blocks, or raises
    ``UnschedulableError`` naming exactly the exams the reference leaves
    without a candidate or, when there is none, the exams with fewer
    candidates than acts and both counts; and the filters the request set."""
    blocks = dict(zip(request.acts, reference_blocks(slots, request)))
    empty = [exam for exam, block in blocks.items() if not block]
    short = [
        f"{exam} (acts {request.acts.count(exam)}, slots {len(block)})"
        for exam, block in blocks.items()
        if 0 < len(block) < request.acts.count(exam)
    ]
    if not empty and not short:
        space = filter_search_space(filter_input, request)
        assert space.per_act_slots == tuple(blocks[exam] for exam in request.acts)
        return
    with pytest.raises(UnschedulableError) as error:
        filter_search_space(filter_input, request)
    if empty:
        message = str(error.value).removeprefix("no candidate slots for ")
        named, _, filters = message.partition(" under ")
        assert named.split(", ") == empty
    else:
        message = str(error.value).removeprefix("more acts than candidate slots for ")
        named, _, filters = message.partition(" under ")
        assert named == ", ".join(short)
    assert ("start_day=" in filters) == (request.start_day > 0)
    assert ("facilities=" in filters) == (request.preferred_facilities is not None)
    assert ("practitioners=" in filters) == (request.preferred_practitioners is not None)


# Few values per field, so blocks collide on exam, start and id; "E9" has
# no slots, so its blocks are empty.  A request names it one act in ten.
FILTER_EXAMS = ("E1", "E2", "E3", "E9")
FILTER_REQUEST_EXAMS = FILTER_EXAMS[:3] * 3 + FILTER_EXAMS[3:]
FILTER_FACILITIES = ("F1", "F2", "F3")
FILTER_PRACTITIONERS = ("P1", "P2", "P3")


@st.composite
def filter_slots(draw):
    day = draw(st.integers(min_value=0, max_value=4))
    minute = draw(st.sampled_from((0, 540, 600, 1380)))
    return make_slot(
        id=draw(st.sampled_from("ABCDEF")),
        exam=draw(st.sampled_from(FILTER_EXAMS[:3])),
        facility=draw(st.sampled_from(FILTER_FACILITIES)),
        practitioner=draw(st.sampled_from(FILTER_PRACTITIONERS)),
        start=day * MINUTES_PER_DAY + minute,
        duration=draw(st.sampled_from((15, 60))),
    )


def preference_sets(values):
    return st.none() | st.frozensets(st.sampled_from(values), max_size=len(values))


@st.composite
def filter_requests(draw):
    return ScheduleRequest(
        acts=tuple(
            draw(st.lists(st.sampled_from(FILTER_REQUEST_EXAMS), min_size=1, max_size=6))
        ),
        start_day=draw(st.integers(min_value=0, max_value=6)),
        preferred_facilities=draw(preference_sets(FILTER_FACILITIES)),
        preferred_practitioners=draw(preference_sets(FILTER_PRACTITIONERS)),
    )


class TestGAConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"population": 0},
            {"generations": -1},
            {"tournament_k": 0},
            {"tournament_k": 8, "population": 7},
            {"mutation_rate": -0.1},
            {"mutation_rate": 1.5},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            GAConfig(**overrides)

    def test_defaults(self):
        config = GAConfig()
        assert config.population == 100
        assert config.generations == 200
        assert config.tournament_k == 7
        assert config.mutation_rate == pytest.approx(0.10)

    def test_fields_are_the_search_knobs(self):
        # The variant and the seed are ``evolve``'s arguments, not config.
        names = [entry.name for entry in fields(GAConfig)]
        assert names == ["population", "generations", "tournament_k", "mutation_rate"]


class TestInitPopulation:
    def test_population_size_both_variants(self):
        space = toy_space()
        for algorithm in GA_ALGORITHMS:
            order = range(space.act_count)
            population = initial_population(space, algorithm, order, 37, random.Random(3))
            assert len(population) == 37

    def test_unordered_draws_uniformly(self):
        # One act, five candidates: each should get ~1/5 of 10^4 individuals.
        space = SearchSpace(
            per_act_slots=(block("E01", [(d, 540) for d in range(5)]),)
        )
        population = initial_population(space, GA_UNORDERED, range(1), 10_000, random.Random(11))
        counts = [0] * 5
        for individual in population:
            counts[individual.genes[0]] += 1
        sigma = (10_000 * 0.2 * 0.8) ** 0.5
        for count in counts:
            assert abs(count - 2000) <= 3 * sigma

    def test_ordered_respects_feasible_precedence(self):
        # Rule forces E01 first; every E02 candidate lies after every E01 one,
        # so ordered sampling always lands E02 after E01's end.
        space = SearchSpace(
            per_act_slots=(
                block("E01", [(0, 540), (0, 600), (0, 660)]),
                block("E02", [(2, 540), (2, 600), (2, 660)]),
            )
        )
        rules = [
            IncompatibilityRule(
                first="E01", second="E02", logic=RuleLogic.BEFORE, gap_minutes=30
            )
        ]
        order = optimal_act_order(("E01", "E02"), rules)
        assert order == (0, 1)
        for individual in initial_population(space, GA_ORDERED, order, 200, random.Random(5)):
            first = space.per_act_slots[0][individual.genes[0]]
            second = space.per_act_slots[1][individual.genes[1]]
            assert second.start >= first.end

    def test_ordered_falls_back_to_full_block(self):
        # No E02 candidate starts after E01's slot: the full block is used
        # rather than leaving the act unassigned.
        space = SearchSpace(
            per_act_slots=(
                block("E01", [(2, 540)]),
                block("E02", [(0, 540), (0, 600)]),
            )
        )
        order = (0, 1)
        for individual in initial_population(space, GA_ORDERED, order, 50, random.Random(6)):
            assert individual.genes[0] == 0
            assert individual.genes[1] in (0, 1)


class TestDecode:
    def test_gene_zero_is_earliest_candidate(self):
        space = toy_space()
        schedule = decode(Individual((0, 0, 0)), space)
        for act, slot in schedule.assignments:
            assert slot == space.per_act_slots[act][0]

    @pytest.mark.parametrize("gene", [None, 1.0, "0", [0]])
    def test_gene_that_is_not_an_int_rejected_naming_its_act(self, gene):
        with pytest.raises(ValueError, match=r"^gene .* of act 1 is not an int$"):
            decode(Individual((0, gene, 0)), toy_space())

    def test_round_trip_re_encoding(self):
        space = toy_space()
        genes = (2, 1, 3)
        schedule = decode(Individual(genes), space)
        recovered = tuple(
            space.per_act_slots[act].index(slot) for act, slot in schedule.assignments
        )
        assert recovered == genes

    def test_out_of_range_gene_rejected(self):
        with pytest.raises(ValueError):
            decode(Individual((99, 0, 0)), toy_space())

    def test_gene_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decode(Individual((0, 0)), toy_space())


def replay_draws(seed, n, k):
    """The index sample the first tournament with this rng state will see."""
    rng = random.Random(seed)
    return [rng.randrange(n) for _ in range(k)]


def breed(genomes, space, rate=0.0, fitnesses=None, k=1, size=None, seed=0):
    """``next_generation`` on ``genomes``; the bred children's genes, elite dropped.

    ``size`` defaults to one pair of children (``population`` 3), raised to
    at least ``k`` so the config is valid.
    """
    population = [Individual(tuple(genes)) for genes in genomes]
    if fitnesses is None:
        fitnesses = [0.5] * len(population)
    config = GAConfig(
        population=max(size or 3, k), tournament_k=k, mutation_rate=rate
    )
    children = next_generation(population, fitnesses, space, config, random.Random(seed))
    return [child.genes for child in children[:-1]]


def one_act_space(width=1):
    return SearchSpace(per_act_slots=(block("E01", [(day, 540) for day in range(width)]),))


class TestTournamentSelect:
    def test_population_of_one(self):
        assert breed([(0,)], one_act_space()) == [(0,), (0,)]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            next_generation([], [], toy_space(), GAConfig(), random.Random(0))

    @settings(max_examples=1000, deadline=None)
    @given(
        fitnesses=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        k=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_winner_is_best_of_sample_tie_to_lowest_index(self, fitnesses, k, seed):
        # One act, so no cut is drawn, and rate 0: the first child is the
        # first tournament's winner.
        n = len(fitnesses)
        k = min(k, n)
        genomes = [(i,) for i in range(n)]
        first = breed(genomes, one_act_space(), fitnesses=fitnesses, k=k, seed=seed)[0]
        draws = replay_draws(seed, n, k)
        assert first == genomes[min(draws, key=lambda i: (-fitnesses[i], i))]

    def test_uniform_fitness_returns_lowest_sampled_index(self):
        n, k = 10, 7
        genomes = [(i,) for i in range(n)]
        for seed in range(200):
            first = breed(genomes, one_act_space(), k=k, seed=seed)[0]
            assert first == genomes[min(replay_draws(seed, n, k))]


class TestCrossover:
    def test_identical_parents_clone(self):
        assert breed([(1, 2, 3)], toy_space()) == [(1, 2, 3), (1, 2, 3)]

    def test_two_act_swap(self):
        space = SearchSpace(per_act_slots=toy_space().per_act_slots[:2])
        genomes = [(1, 2), (3, 4)]
        swapped = 0
        for seed in range(20):
            a, b = replay_draws(seed, 2, 2)
            children = breed(genomes, space, seed=seed)
            assert children == [(genomes[a][0], genomes[b][1]), (genomes[b][0], genomes[a][1])]
            swapped += a != b
        assert swapped

    def test_single_act_passes_through(self):
        # Each child is its tournament's winner, and no cut is drawn: the
        # stream after breeding is two tournament draws and two mutation
        # draws.
        genomes = [(1,), (2,)]
        rng = random.Random(0)
        config = GAConfig(population=3, tournament_k=1, mutation_rate=0.0)
        children = next_generation(
            [Individual(g) for g in genomes], [0.5, 0.5], one_act_space(3), config, rng
        )
        replay = random.Random(0)
        a, b = replay.randrange(2), replay.randrange(2)
        replay.random(), replay.random()
        assert [child.genes for child in children[:2]] == [genomes[a], genomes[b]]
        assert rng.getstate() == replay.getstate()

    @settings(max_examples=1000, deadline=None)
    @given(
        genes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cut_at_block_boundary_preserves_blocks(self, genes, seed):
        n = len(genes)
        space = SearchSpace(per_act_slots=one_act_space(10).per_act_slots * n)
        genomes = [tuple(pair[0] for pair in genes), tuple(pair[1] for pair in genes)]
        child_a, child_b = breed(genomes, space, seed=seed)
        replay = random.Random(seed)
        a, b = genomes[replay.randrange(2)], genomes[replay.randrange(2)]
        cut = replay.randrange(1, n)
        assert child_a == a[:cut] + b[cut:]
        assert child_b == b[:cut] + a[cut:]
        for i in range(n):
            assert child_a[i] in (a[i], b[i])
            assert child_b[i] in (a[i], b[i])


class TestMutate:
    def test_rate_zero_is_identity(self):
        for seed in range(50):
            assert breed([(0, 1, 2)], toy_space(), size=9, seed=seed) == [(0, 1, 2)] * 8

    def test_singleton_block_redraw_keeps_value(self):
        assert breed([(0,)], one_act_space(), rate=1.0) == [(0,), (0,)]

    def test_mutation_frequency_within_one_percent(self):
        # Genes start at 4, past every toy block's last position (3), so
        # every triggered mutation shows as one changed gene.
        children = breed([(4, 4, 4)], toy_space(), rate=0.10, size=10_001, seed=99)
        mutated = sum(1 for genes in children if genes != (4, 4, 4))
        assert len(children) == 10_000
        assert abs(mutated / 10_000 - 0.10) <= 0.01

    @settings(max_examples=1000, deadline=None)
    @given(
        genes=st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_changes_at_most_one_gene_within_block_range(self, genes, seed):
        space = toy_space()
        for child in breed([genes], space, rate=GAConfig().mutation_rate, size=9, seed=seed):
            differing = [i for i in range(3) if child[i] != genes[i]]
            assert len(differing) <= 1
            for i in differing:
                assert 0 <= child[i] < len(space.per_act_slots[i])


class TestNextGeneration:
    def test_size_fixed_and_elite_appended(self):
        space = toy_space()
        config = GAConfig(population=21, tournament_k=5)
        rng = random.Random(2)
        population = initial_population(space, GA_ORDERED, range(3), config.population, rng)
        evaluate = make_evaluator(space, TOY_REQUEST, TOY_RULES)
        fitnesses = [evaluate(individual) for individual in population]
        children = next_generation(population, fitnesses, space, config, rng)
        assert len(children) == 21
        elite = population[max(range(21), key=fitnesses.__getitem__)]
        assert children[-1] == elite

    def test_children_always_decode(self):
        space = toy_space()
        config = GAConfig(population=30)
        rng = random.Random(8)
        population = initial_population(space, GA_ORDERED, range(3), config.population, rng)
        evaluate = make_evaluator(space, TOY_REQUEST, TOY_RULES)
        for _ in range(5):
            fitnesses = [evaluate(individual) for individual in population]
            population = next_generation(population, fitnesses, space, config, rng)
            for individual in population:
                decode(individual, space)  # must not raise


class TestEvolve:
    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_space_with_an_empty_block_rejected(self, empty):
        # The written-out draws would loop for ever on a block of width 0.
        blocks = list(toy_space().per_act_slots)
        blocks[empty] = ()
        with pytest.raises(ValueError, match="^every act needs at least one candidate slot$"):
            SearchSpace(per_act_slots=tuple(blocks))

    def test_space_without_acts_rejected(self):
        # Every operator draws an act, and a mutation of a genome without
        # genes has none to draw.
        with pytest.raises(ValueError, match="^a search space needs at least one act$"):
            SearchSpace(per_act_slots=())

    @pytest.mark.parametrize("algorithm", ["fcfs", "random", "ordered", "GA-ORDERED"])
    def test_rejects_a_name_that_is_not_a_ga_variant(self, algorithm):
        with pytest.raises(ValueError, match=f"unknown GA algorithm '{algorithm}'"):
            evolve(toy_space(), TOY_REQUEST, TOY_RULES, GAConfig(), algorithm, 0)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_paused_during_run_and_restored(self, enabled):
        states = []
        original = ga.make_evaluator

        def make_evaluator(space, request, rules):
            evaluate = original(space, request, rules)

            def spy(genome):
                states.append(gc.isenabled())
                return evaluate(genome)

            return spy

        config = GAConfig(population=10, generations=3, tournament_k=2)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with patch.object(ga, "make_evaluator", make_evaluator):
                evolve(toy_space(), TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 0)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="unknown GA algorithm"):
                evolve(toy_space(), TOY_REQUEST, TOY_RULES, config, "fcfs", 0)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert states and not any(states)

    def test_zero_generations_returns_best_of_init(self):
        space = toy_space()
        config = GAConfig(population=40, generations=0)
        best_schedule, history = evolve(space, TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 13)
        assert history == ()
        # Reconstruct the initial population with the same stream.
        rng = random.Random(13)
        order = optimal_act_order(TOY_REQUEST.acts, TOY_RULES)
        population = initial_population(space, GA_ORDERED, order, config.population, rng)
        evaluate = make_evaluator(space, TOY_REQUEST, TOY_RULES)
        fitnesses = [evaluate(individual) for individual in population]
        best = population[max(range(len(population)), key=fitnesses.__getitem__)]
        assert best_schedule == decode(best, space)

    def test_history_shape_and_initial_row(self):
        space = toy_space()
        config = GAConfig(population=25, generations=12)
        _, history = evolve(space, TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 4)
        assert len(history) == 12
        assert all(isinstance(stats, GenerationStats) for stats in history)
        rng = random.Random(4)
        order = optimal_act_order(TOY_REQUEST.acts, TOY_RULES)
        population = initial_population(space, GA_ORDERED, order, config.population, rng)
        evaluate = make_evaluator(space, TOY_REQUEST, TOY_RULES)
        fitnesses = [evaluate(individual) for individual in population]
        assert history[0].best_fitness == pytest.approx(max(fitnesses))
        assert history[0].mean_fitness == pytest.approx(
            sum(fitnesses) / len(fitnesses)
        )

    @pytest.mark.parametrize("algorithm", GA_ALGORITHMS)
    def test_best_fitness_nondecreasing(self, algorithm):
        space = toy_space()
        config = GAConfig(population=30, generations=25)
        _, history = evolve(space, TOY_REQUEST, TOY_RULES, config, algorithm, 21)
        series = [stats.best_fitness for stats in history]
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_best_at_least_mean_each_generation(self):
        space = toy_space()
        config = GAConfig(population=30, generations=25)
        _, history = evolve(space, TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 22)
        for stats in history:
            assert stats.best_fitness >= stats.mean_fitness

    def test_returned_best_matches_history_peak(self):
        space = toy_space()
        config = GAConfig(population=30, generations=25)
        best, history = evolve(space, TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 23)
        best_score = fitness(compute_penalties(best, TOY_REQUEST, TOY_RULES))
        assert best_score == pytest.approx(max(stats.best_fitness for stats in history))

    @pytest.mark.parametrize("algorithm", GA_ALGORITHMS)
    def test_deterministic_given_config(self, algorithm):
        space = toy_space()
        config = GAConfig(population=20, generations=10)
        first = evolve(space, TOY_REQUEST, TOY_RULES, config, algorithm, 31)
        second = evolve(space, TOY_REQUEST, TOY_RULES, config, algorithm, 31)
        assert first == second
        best, history = first
        assert isinstance(best, Schedule) and isinstance(history, tuple)

    def test_seed_changes_trajectory(self):
        space = toy_space()
        config = GAConfig(population=20, generations=10)
        assert evolve(space, TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 31) != evolve(
            space, TOY_REQUEST, TOY_RULES, config, GA_ORDERED, 32
        )

    @pytest.mark.parametrize("algorithm", GA_ALGORITHMS)
    def test_escapes_one_gene_local_optimum(self, algorithm):
        # Each act has hourly slots on day 0 and one slot on day 1.  Three
        # consecutive hours on day 0 score one trip plus two 30-minute waits
        # (penalty 106); the back-to-back day-1 chain scores one trip plus one
        # lead day (101).  Any mix of days costs two trips, so the day-0 best
        # has no better one-gene neighbour and the optimum is three genes away.
        hours = [(0, 60 * h) for h in range(8, 18)]
        space = SearchSpace(
            per_act_slots=(
                block("E01", hours + [(1, 600)]),
                block("E02", hours + [(1, 570)]),
                block("E03", hours + [(1, 540)]),
            )
        )
        evaluate = make_evaluator(space, TOY_REQUEST, ())
        trap, optimum = (0, 1, 2), (10, 10, 10)
        scores = {
            genes: evaluate(Individual(genes))
            for genes in itertools.product(range(11), repeat=3)
        }
        assert max(scores, key=scores.__getitem__) == optimum
        neighbours = [
            trap[:act] + (gene,) + trap[act + 1 :]
            for act in range(3)
            for gene in range(11)
        ]
        assert max(scores[genes] for genes in neighbours) == scores[trap]

        best, _ = evolve(space, TOY_REQUEST, (), GAConfig(), algorithm, 0)
        assert best == decode(Individual(optimum), space)

    def test_polished_best_is_next_elite(self):
        # With one act every genome is one gene from every other, so polishing
        # generation 0's best reaches the optimum (day 0, no lead penalty),
        # which generation 1 then carries as its elite.
        space = SearchSpace(
            per_act_slots=(block("E01", [(day, 540) for day in range(20)]),)
        )
        request = ScheduleRequest(acts=("E01",))
        config = GAConfig(population=2, generations=2, tournament_k=2)
        best, (first, second) = evolve(space, request, (), config, GA_ORDERED, 0)
        assert first.best_fitness < second.best_fitness
        assert best == decode(Individual((0,)), space)

    def test_never_polishes_a_genome_twice(self, default_world, monkeypatch):
        # On the default world's seed-7 request two tied local optima take
        # turns as the best genome.  A polish that starts from a genome an
        # earlier polish started from or returned would return it unchanged.
        calls = []

        def counting(genes, value, space, cached):
            result = polish(genes, value, space, cached)
            calls.append((genes, result[0]))
            return result

        polish = ga._polish
        monkeypatch.setattr(ga, "_polish", counting)
        request = generate_request(list(default_world.exams), default_world.config, 5, seed=7)
        space = filter_search_space(default_world.slots, request)
        evolve(space, request, default_world.rules, GAConfig(), GA_ORDERED, 7)
        assert len(calls) > 1
        seen = set()
        for start, end in calls:
            assert start not in seen
            seen.update((start, end))


class TestUniformGenes:
    def test_matches_block_lengths(self):
        space = SearchSpace(
            per_act_slots=(block("E01", [(0, 540), (0, 600)]), block("E02", [(0, 700)]))
        )
        genes = uniform_genes(space, random.Random(0))
        assert genes[0] in (0, 1)
        assert genes[1] == 0


# --- Draws written out against ``Random.randrange`` ---------------------------
#
# The GA's operators draw with ``getrandbits`` loops instead of
# ``rng.randrange``.  The tests below hold them to the stream of the
# ``randrange`` versions they replace: the same values and the same
# ``getstate()`` afterwards, so every run stays bit-identical.


def below(rng, width):
    """The draw loop the GA writes out for ``rng.randrange(width)``."""
    bits = width.bit_length()
    value = rng.getrandbits(bits)
    while value >= width:
        value = rng.getrandbits(bits)
    return value


DRAW_WIDTHS = sorted(
    {1, 2} | {w for k in range(2, 21) for w in (2**k - 1, 2**k, 2**k + 1)}
)


def assert_draws_match_randrange(width, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert [below(ours, width) for _ in range(16)] == [
        theirs.randrange(width) for _ in range(16)
    ]
    assert ours.getstate() == theirs.getstate()
    assert [1 + below(ours, width) for _ in range(16)] == [
        theirs.randrange(1, width + 1) for _ in range(16)
    ]
    assert ours.getstate() == theirs.getstate()


class TestDrawMatchesRandrange:
    @pytest.mark.parametrize("width", DRAW_WIDTHS)
    def test_boundary_widths(self, width):
        for seed in range(10):
            assert_draws_match_randrange(width, seed)

    @settings(max_examples=1000, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=2**40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_drawn_widths(self, width, seed):
        assert_draws_match_randrange(width, seed)


# The operators as they were when they drew with ``rng.randrange``; they are
# the oracle the current ones must replay draw for draw.


def oracle_uniform_genes(space, rng):
    return tuple(rng.randrange(len(block)) for block in space.per_act_slots)


def oracle_ordered_genes(space, order, block_starts, rng):
    genes = [0] * space.act_count
    prev_end = None
    for act in order:
        block = space.per_act_slots[act]
        lo = 0
        if prev_end is not None:
            lo = bisect_left(block_starts[act], prev_end)
            if lo >= len(block):
                lo = 0
        gene = lo + rng.randrange(len(block) - lo)
        genes[act] = gene
        prev_end = block[gene].end
    return tuple(genes)


def oracle_init_population(space, algorithm, order, size, rng):
    if algorithm == GA_UNORDERED:
        return [Individual(oracle_uniform_genes(space, rng)) for _ in range(size)]
    block_starts = [[slot.start for slot in block] for block in space.per_act_slots]
    return [
        Individual(oracle_ordered_genes(space, order, block_starts, rng))
        for _ in range(size)
    ]


def oracle_tournament_select(population, fitnesses, config, rng):
    if not population:
        raise ValueError("cannot select from an empty population")
    n = len(population)
    best_idx = rng.randrange(n)
    for _ in range(config.tournament_k - 1):
        idx = rng.randrange(n)
        if fitnesses[idx] > fitnesses[best_idx] or (
            fitnesses[idx] == fitnesses[best_idx] and idx < best_idx
        ):
            best_idx = idx
    return population[best_idx]


def oracle_crossover(parent_a, parent_b, rng):
    n = len(parent_a.genes)
    if n < 2:
        return parent_a, parent_b
    cut = rng.randrange(1, n)
    child_a = Individual(parent_a.genes[:cut] + parent_b.genes[cut:])
    child_b = Individual(parent_b.genes[:cut] + parent_a.genes[cut:])
    return child_a, child_b


def oracle_mutate(child, space, config, rng):
    if rng.random() >= config.mutation_rate:
        return child
    act = rng.randrange(len(child.genes))
    block = space.per_act_slots[act]
    genes = list(child.genes)
    genes[act] = rng.randrange(len(block))
    return Individual(tuple(genes))


def oracle_next_generation(population, fitnesses, space, config, rng):
    children = []
    while len(children) < config.population - 1:
        parent_a = oracle_tournament_select(population, fitnesses, config, rng)
        parent_b = oracle_tournament_select(population, fitnesses, config, rng)
        child_a, child_b = oracle_crossover(parent_a, parent_b, rng)
        children.append(oracle_mutate(child_a, space, config, rng))
        children.append(oracle_mutate(child_b, space, config, rng))
    del children[config.population - 1 :]
    elite = population[max(range(len(population)), key=fitnesses.__getitem__)]
    children.append(elite)
    return children


@st.composite
def spaces(draw, max_acts=5):
    """Search spaces of 1..``max_acts`` acts; blocks of 1..9 sorted slots.

    Sizes are drawn; starts (half-hours over four days, repeats allowed)
    and durations are laid out from a drawn seed.
    """
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=max_acts)
    )
    layout = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    blocks = []
    for act, size in enumerate(sizes):
        day_minutes = sorted(
            (layout.randrange(4), 480 + 30 * layout.randrange(18)) for _ in range(size)
        )
        duration = layout.choice([30, 60, 90])
        blocks.append(block(f"E{act:02d}", day_minutes, duration=duration))
    return SearchSpace(per_act_slots=tuple(blocks))


def genomes(draw, space):
    return Individual(
        tuple(draw(st.integers(min_value=0, max_value=len(b) - 1)) for b in space.per_act_slots)
    )


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
TIED_FITNESSES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0])
MUTATION_RATES = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


def assert_breeding_replays(genomes, fitnesses, space, config, seed):
    """``next_generation`` equals the oracle's children and stream, three times over."""
    population = [Individual(genes) for genes in genomes]
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert next_generation(
            population, fitnesses, space, config, ours
        ) == oracle_next_generation(population, fitnesses, space, config, theirs)
    assert ours.getstate() == theirs.getstate()


class TestBreedingReplaysRandrange:
    @settings(max_examples=1000, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_tournament_select(self, data, seed):
        # One act and rate 0: the stream is tournament draws and the
        # mutation draw of each child.
        fitnesses = data.draw(st.lists(TIED_FITNESSES, min_size=1, max_size=12))
        n = len(fitnesses)
        k = data.draw(st.integers(min_value=1, max_value=n))
        config = GAConfig(population=max(n, 2), tournament_k=k, mutation_rate=0.0)
        genomes = [(i,) for i in range(n)]
        assert_breeding_replays(genomes, fitnesses, one_act_space(), config, seed)

    @settings(max_examples=1000, deadline=None)
    @given(
        genes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=SEEDS,
    )
    def test_crossover(self, genes, seed):
        space = SearchSpace(per_act_slots=one_act_space(10).per_act_slots * len(genes))
        genomes = [tuple(pair[0] for pair in genes), tuple(pair[1] for pair in genes)]
        config = GAConfig(population=3, tournament_k=1, mutation_rate=0.0)
        assert_breeding_replays(genomes, [0.5, 0.5], space, config, seed)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data(), rate=MUTATION_RATES, seed=SEEDS)
    def test_mutate(self, data, rate, seed):
        # One parent genome, so crossover reproduces it and each child shows
        # only its mutation.
        space = data.draw(spaces())
        child = genomes(data.draw, space)
        config = GAConfig(population=3, tournament_k=1, mutation_rate=rate)
        assert_breeding_replays([child.genes], [0.5], space, config, seed)

    @settings(max_examples=1000, deadline=None)
    @given(
        data=st.data(),
        size=st.one_of(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=12)),
        rate=MUTATION_RATES,
        seed=SEEDS,
    )
    def test_next_generation(self, data, size, rate, seed):
        space = data.draw(spaces())
        population = [genomes(data.draw, space) for _ in range(size)]
        fitnesses = data.draw(st.lists(TIED_FITNESSES, min_size=size, max_size=size))
        k = data.draw(st.integers(min_value=1, max_value=size))
        config = GAConfig(population=size, tournament_k=k, mutation_rate=rate)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert next_generation(
            population, fitnesses, space, config, ours
        ) == oracle_next_generation(population, fitnesses, space, config, theirs)
        assert ours.getstate() == theirs.getstate()

    @settings(max_examples=1000, deadline=None)
    @given(
        data=st.data(),
        algorithm=st.sampled_from(GA_ALGORITHMS),
        size=st.integers(min_value=1, max_value=6),
        seed=SEEDS,
    )
    def test_init_population_and_uniform_genes(self, data, algorithm, size, seed):
        space = data.draw(spaces())
        order = data.draw(st.permutations(range(space.act_count)))
        ours, theirs = random.Random(seed), random.Random(seed)
        assert initial_population(space, algorithm, order, size, ours) == oracle_init_population(
            space, algorithm, order, size, theirs
        )
        assert uniform_genes(space, ours) == oracle_uniform_genes(space, theirs)
        assert ours.getstate() == theirs.getstate()

    # Every act-2 candidate starts before any act-0 slot ends, every act-3
    # candidate before any act-0, act-1 or act-2 slot ends, and every act-4
    # candidate before any other act's slot ends, so a walk reaching act 2
    # from act 0, act 3 from act 0, 1 or 2, or act 4 from any act falls
    # back to the whole block (``lo = 0``).  Act 1's candidates lie on days
    # 0, 2 and 4, so walks into and out of it cut blocks part way.
    EDGE_SPACE = SearchSpace(
        per_act_slots=(
            block("E00", [(3, 540), (3, 600), (3, 660)], duration=90),
            block("E01", [(0, 600), (2, 540), (4, 540)]),
            block("E02", [(0, 540), (0, 570), (1, 540)], duration=60),
            block("E03", [(0, 480), (0, 510)]),
            block("E04", [(0, 420), (0, 450)]),
        )
    )

    @pytest.mark.parametrize(
        "order",
        [
            (1, 0, 2, 3, 4),  # act 1 first; acts 2, 3 and 4 fall back
            (0, 1, 2, 4, 3),  # act 0 cuts act 1's block; acts 2 and 4 fall back
            (3, 0, 2, 4, 1),  # acts 2 and 4 fall back; act 1 last
            (4, 1, 0, 3, 2),  # act 4 first; act 0 falls back after day 4, then act 3
        ],
    )
    def test_ordered_init_cuts_and_fallbacks(self, order):
        space = self.EDGE_SPACE
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert initial_population(space, GA_ORDERED, order, 50, ours) == oracle_init_population(
                space, GA_ORDERED, order, 50, theirs
            )
            assert ours.getstate() == theirs.getstate()


# The fitness cache as an independent oracle: an ``OrderedDict`` keyed by a
# mixed-radix integer rather than the gene tuple, least recently used first
# out, and the one-gene polish as a plain scan over it.  ``evolve``'s scoring
# and ``_polish`` must replay them, evaluator call for evaluator call.


def checking_evaluators(callers):
    """``ga.make_evaluator`` whose evaluators first ``decode`` every genome.

    ``callers`` counts the scoring calls by the function (``evolve`` or
    ``_polish``) whose cache miss made them.
    """
    original = ga.make_evaluator

    def make_evaluator(space, request, rules):
        evaluate = original(space, request, rules)

        def checked(genome):
            assert isinstance(genome, Individual)
            decode(genome.genes, space)  # raises on a bad genome
            # evaluate <- the C cache and ``map`` (no frames) <- caller
            callers[sys._getframe(1).f_code.co_name] += 1
            return evaluate(genome)

        return checked

    return make_evaluator


class TestEvaluatorSeesOnlyBredGenomes:
    # The evaluator does not check its genomes: every genome ``evolve``
    # scores, polish neighbours included, must be one ``decode`` accepts.
    @pytest.mark.parametrize("algorithm", GA_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_world(self, default_world, algorithm, seed):
        request = generate_request(
            list(default_world.exams), default_world.config, 5, seed=seed
        )
        space = filter_search_space(default_world.slots, request)
        callers = Counter()
        with patch.object(ga, "make_evaluator", checking_evaluators(callers)):
            evolve(space, request, default_world.rules, GAConfig(), algorithm, seed)
        assert set(callers) == {"evolve", "_polish"}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), algorithm=st.sampled_from(GA_ALGORITHMS), seed=SEEDS)
    def test_drawn_spaces(self, data, algorithm, seed):
        space = data.draw(spaces())
        request = ScheduleRequest(acts=tuple(block[0].exam for block in space.per_act_slots))
        pairs = list(itertools.permutations(request.acts, 2))
        rules = ()
        if pairs:
            rule = st.builds(
                lambda pair, logic, gap: IncompatibilityRule(*pair, logic, gap),
                st.sampled_from(pairs),
                st.sampled_from(list(RuleLogic)),
                st.sampled_from([30, 240]),
            )
            rules = data.draw(st.lists(rule, max_size=3))
        config = GAConfig(population=6, generations=4, tournament_k=2, mutation_rate=0.5)
        callers = Counter()
        with patch.object(ga, "make_evaluator", checking_evaluators(callers)):
            evolve(space, request, rules, config, algorithm, seed)
        assert callers["evolve"] > 0
        assert set(callers) <= {"evolve", "_polish"}


def oracle_scorer(space, evaluate, limit):
    radices = [len(block) for block in space.per_act_slots]
    memo = OrderedDict()

    def key_of(genes):
        key = 0
        for gene, radix in zip(genes, radices):
            key = key * radix + gene
        return key

    def score(genes):
        key = key_of(genes)
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        value = memo[key] = evaluate(Individual(genes))
        if len(memo) > limit:
            memo.popitem(last=False)
        return value

    return score


def oracle_polish(genes, value, space, score):
    improved = True
    while improved:
        improved = False
        for act, block in enumerate(space.per_act_slots):
            for gene in range(len(block)):
                if gene == genes[act]:
                    continue
                candidate = genes[:act] + (gene,) + genes[act + 1 :]
                candidate_value = score(candidate)
                if candidate_value > value:
                    genes, value, improved = candidate, candidate_value, True
    return genes, value


def recording_evaluator(seed):
    """Fitness drawn from a few tied levels per genome; records every call."""
    calls = []

    def evaluate(individual):
        calls.append(individual.genes)
        return random.Random(f"{seed}:{individual.genes}").choice(
            [0.1, 0.2, 0.2, 0.5, 0.5, 0.5]
        )

    return evaluate, calls


def recorded_evolve(space, config, algorithm, seed, evaluate):
    """``evolve`` on ``space`` with ``evaluate`` as its evaluator.

    Returns its ``(best, history)`` and, in order, each population ``evolve`` scored as
    ``("score", genomes)`` and each polish as ``("polish", genes, value,
    returned)``.
    """
    events = []
    init, replace_duplicates, polish = ga.init_population, ga._replace_duplicates, ga._polish

    def initial(draw, size):
        population = init(draw, size)
        events.append(("score", list(population)))
        return population

    def redrawn(children, draw):
        replace_duplicates(children, draw)
        events.append(("score", list(children)))

    def polished(genes, value, space, cached):
        returned = polish(genes, value, space, cached)
        events.append(("polish", genes, value, returned))
        return returned

    request = ScheduleRequest(acts=tuple(block[0].exam for block in space.per_act_slots))
    with patch.multiple(
        ga,
        make_evaluator=lambda *args: evaluate,
        init_population=initial,
        _replace_duplicates=redrawn,
        _polish=polished,
    ):
        best, history = evolve(space, request, (), config, algorithm, seed)
    return (best, history), events


class TestPopulationScorerReplaysOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        limit=st.integers(min_value=1, max_value=12),
        algorithm=st.sampled_from(GA_ALGORITHMS),
        seed=SEEDS,
    )
    def test_same_values_and_evaluator_calls(self, data, limit, algorithm, seed):
        # Small spaces and caches: genomes repeat within and across
        # generations, and entries are evicted between uses.
        space = data.draw(spaces(max_acts=4))
        config = GAConfig(
            population=data.draw(st.integers(2, 8)),
            generations=data.draw(st.integers(0, 6)),
            tournament_k=2,
            mutation_rate=0.5,
        )
        evaluate, calls = recording_evaluator(seed)
        oracle_evaluate, oracle_calls = recording_evaluator(seed)
        with patch.object(ga, "MEMO_LIMIT", limit):
            (_, history), events = recorded_evolve(space, config, algorithm, seed, evaluate)
        score = oracle_scorer(space, oracle_evaluate, limit)
        rows = []
        for event in events:
            if event[0] == "score":
                values = [score(genes) for genes in event[1]]
                rows.append((max(values), fmean(values)))
            else:
                _, genes, value, returned = event
                assert oracle_polish(genes, value, space, score) == returned
                assert type(returned[0]) is Individual  # it joins the population
        assert [(row.best_fitness, row.mean_fitness) for row in history] == rows[
            : config.generations
        ]
        assert calls == oracle_calls

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), algorithm=st.sampled_from(GA_ALGORITHMS), seed=SEEDS)
    def test_one_evaluation_per_distinct_genome(self, data, algorithm, seed):
        # A run of these sizes scores far fewer than ``MEMO_LIMIT`` distinct
        # genomes, so nothing is evicted and no genome is evaluated twice.
        space = data.draw(spaces(max_acts=4))
        config = GAConfig(population=8, generations=10, tournament_k=2, mutation_rate=0.5)
        evaluate, calls = recording_evaluator(seed)
        _, events = recorded_evolve(space, config, algorithm, seed, evaluate)
        scored = {genes for event in events if event[0] == "score" for genes in event[1]}
        assert len(set(calls)) <= ga.MEMO_LIMIT
        assert scored <= set(calls)
        assert len(calls) == len(set(calls))


class TestPolishReplaysOracle:
    @settings(max_examples=500, deadline=None)
    @given(
        data=st.data(),
        limit=st.one_of(st.integers(min_value=1, max_value=12), st.just(ga.MEMO_LIMIT)),
        seed=SEEDS,
    )
    def test_same_result_and_evaluator_calls(self, data, limit, seed):
        space = data.draw(spaces(max_acts=4))
        warm = [genomes(data.draw, space) for _ in range(data.draw(st.integers(0, 6)))]
        starts = [genomes(data.draw, space) for _ in range(2)]
        evaluate, calls = recording_evaluator(seed)
        oracle_evaluate, oracle_calls = recording_evaluator(seed)
        cached = lru_cache(maxsize=limit)(evaluate)
        score = oracle_scorer(space, oracle_evaluate, limit)
        assert list(map(cached, warm)) == [score(g) for g in warm]
        for genes in starts:
            value = cached(genes)
            assert value == score(genes)
            assert ga._polish(genes, value, space, cached) == oracle_polish(
                genes, value, space, score
            )
        assert list(map(cached, warm)) == [score(g) for g in warm]
        assert calls == oracle_calls


def test_memo_scores_each_genome_as_itself():
    # On a two-candidate act, genes 0 and 1 are distinct genomes; each is
    # evaluated once and every generation's stats read each as itself.
    space = SearchSpace(per_act_slots=((make_slot("A"), make_slot("B", start=600)),))
    values = {(0,): 0.5, (1,): 0.1}
    evaluated = []

    def evaluate(individual):
        evaluated.append(individual.genes)
        return values[individual.genes]

    config = GAConfig(population=4, generations=3, tournament_k=2, mutation_rate=0.5)
    (_, history), events = recorded_evolve(space, config, GA_UNORDERED, 0, evaluate)
    populations = [event[1] for event in events if event[0] == "score"]
    assert sorted(evaluated) == [(0,), (1,)]
    assert [(row.best_fitness, row.mean_fitness) for row in history] == [
        (max(map(values.get, p)), fmean(map(values.get, p))) for p in populations
    ]
    assert {genes for p in populations for genes in p} == {(0,), (1,)}


class TestIndividualIsItsGeneTuple:
    GENES = (2, 1, 0)

    def test_equals_and_hashes_as_its_genes(self):
        individual = Individual(self.GENES)
        assert individual == self.GENES
        assert hash(individual) == hash(self.GENES)
        assert individual.genes == self.GENES
        assert individual.genes is individual

    def test_immutable(self):
        individual = Individual(self.GENES)
        with pytest.raises(AttributeError):
            individual.genes = (0, 0, 0)
        with pytest.raises(AttributeError):
            individual.fitness = 0.5
        with pytest.raises(TypeError):
            individual[0] = 1
        assert individual == self.GENES

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        restored = pickle.loads(pickle.dumps(Individual(self.GENES), protocol))
        assert type(restored) is Individual
        assert restored == self.GENES
        assert restored.genes == self.GENES

    def test_memo_entry_shared_with_plain_tuple_neighbour(self):
        # The fitness cache holds one entry for an individual and its equal
        # gene tuple.  The polish neighbour (1, 0) hits the entry that scoring
        # Individual((1, 0)) filled, so it is evaluated once; only the genomes
        # not scored before are new.
        space = SearchSpace(
            per_act_slots=(
                (make_slot("A"), make_slot("B", start=600)),
                (make_slot("C", exam="E01", start=700),),
            )
        )
        evaluated = []

        def evaluate(individual):
            evaluated.append(individual.genes)
            return 0.5 if individual.genes == (1, 0) else 0.1

        cached = lru_cache(maxsize=ga.MEMO_LIMIT)(evaluate)
        assert cached(Individual((1, 0))) == 0.5
        assert ga._polish((0, 0), 0.1, space, cached) == ((1, 0), 0.5)
        assert evaluated == [(1, 0), (0, 0)]
        assert [cached((0, 0)), cached(Individual((1, 0)))] == [0.1, 0.5]
        assert evaluated == [(1, 0), (0, 0)]


def evolve_digest(best, history):
    """sha256 of ``best`` and every history row, numbered, floats written exactly."""
    document = repr(
        (
            [(act, slot.id) for act, slot in best.assignments],
            [
                (generation, row.best_fitness.hex(), row.mean_fitness.hex())
                for generation, row in enumerate(history)
            ],
        )
    )
    return hashlib.sha256(document.encode()).hexdigest()


# Recorded with the ``randrange``-drawing operators above, one default-sized
# run per (variant, seed) on the default world's seed-``seed`` request, and
# re-recorded when equal-start picks stopped being ordered by slot id: each
# run's best schedule and best fitnesses stayed, its mean fitnesses moved.
EVOLVE_DIGESTS = {
    (GA_ORDERED, 0): "8aff1499ddab484cce75a87e7b8b00978191c9e931375bce092840cc0614a29c",
    (GA_ORDERED, 1): "3c5ffbf3c2604175306c96ec567a7cbf3b51aa485df67b7504d2e9af9ab4319b",
    (GA_ORDERED, 2): "09ae536934516b50694e8791d6b2c37cefcba10b4904f8e8af2e91bd9dd2a873",
    (GA_UNORDERED, 0): "309a3655e5ba21e44d6fe4387c8855965fa0820ebeac8145858df27588b245fe",
    (GA_UNORDERED, 1): "7bb278adaa3369e7ef0d2602f590cec562a5fd26a22487fc500fac388ddfa94f",
    (GA_UNORDERED, 2): "f406ac91e2c1b7eb106baac0ca76bcbda6e1346e59463649fa9665ead0d4b6e5",
}


@pytest.mark.parametrize(("algorithm", "seed"), list(EVOLVE_DIGESTS))
def test_evolve_matches_recorded_digest(default_world, algorithm, seed):
    request = generate_request(
        list(default_world.exams), default_world.config, 5, seed=seed
    )
    space = filter_search_space(default_world.slots, request)
    best, history = evolve(space, request, default_world.rules, GAConfig(), algorithm, seed)
    assert evolve_digest(best, history) == EVOLVE_DIGESTS[algorithm, seed]
