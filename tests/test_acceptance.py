"""Acceptance gate: eight benchmark-level criteria, one test and verdict line each.

Criteria 1-5 share one full-size benchmark run (default world, 25 trials,
5-act requests, both evolutionary variants at default knobs plus both
baselines).  Criteria 6 and 7 run their own dedicated protocols; criterion 8
is the bundle of randomized property suites at 1000 cases per property.
"""

import itertools
import math
import random
import time
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsched.bench import (
    FCFS,
    GA_ALGORITHMS,
    GA_ORDERED,
    GA_UNORDERED,
    RANDOM,
    BenchConfig,
    metric_samples,
    run_bench,
)
from medsched.constraints import schedule_counts
from medsched.datagen import WorldConfig, generate_request, generate_world
from medsched.fitness import PenaltyBreakdown, compute_penalties, fitness
from medsched.ga import (
    GAConfig,
    Individual,
    SearchSpace,
    decode,
    evolve,
    filter_search_space,
    next_generation,
)
from medsched.metrics import mann_whitney_u, solution_metrics
from medsched.model import (
    MINUTES_PER_DAY,
    IncompatibilityRule,
    RuleLogic,
)

from conftest import make_schedule, make_slot
from oracle import (
    check_incompatibilities,
    check_travel_gaps,
    find_overlaps,
    segment_trips,
    slots_overlap,
)

BENCH_TIME_BUDGET_SECONDS = 300.0


def verdict(number, name, passed, detail):
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    if not passed:
        pytest.fail(line)


@pytest.fixture(scope="module")
def bench():
    started = time.perf_counter()
    result = run_bench(BenchConfig(), generate_world(WorldConfig()))
    elapsed = time.perf_counter() - started
    return result, elapsed


def ga_records(result):
    return [r for a in GA_ALGORITHMS for r in result.ok_records_for(a)]


def test_criterion_1_ga_constraint_fulfillment(bench):
    result, elapsed = bench
    records = ga_records(result)
    assert len(records) == 50
    clean = [
        r
        for r in records
        if r.metrics.overlap_ok and r.metrics.compatibility_ok and r.metrics.travel_ok
    ]
    passed = len(clean) == len(records) and elapsed < BENCH_TIME_BUDGET_SECONDS
    verdict(
        1,
        "GA constraint fulfillment",
        passed,
        f"{len(clean)}/{len(records)} evolved solutions satisfy all three "
        f"constraints; benchmark took {elapsed:.1f}s (budget {BENCH_TIME_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_2_fcfs_failure_modes(bench):
    result, _ = bench
    fcfs = result.ok_records_for(FCFS)
    overlap_rate = sum(not r.metrics.overlap_ok for r in fcfs) / len(fcfs)
    travel_rate = sum(not r.metrics.travel_ok for r in fcfs) / len(fcfs)
    primary = overlap_rate >= 0.30 and travel_rate >= 0.15
    ga = ga_records(result)
    ga_overlap = sum(not r.metrics.overlap_ok for r in ga) / len(ga)
    ga_travel = sum(not r.metrics.travel_ok for r in ga) / len(ga)
    fallback = ga_overlap < overlap_rate and ga_travel < travel_rate
    verdict(
        2,
        "FCFS failure modes",
        primary or fallback,
        f"FCFS violation rates: overlap {overlap_rate:.0%} (need >= 30%), "
        f"travel gap {travel_rate:.0%} (need >= 15%); GA rates for reference: "
        f"overlap {ga_overlap:.0%}, travel gap {ga_travel:.0%}",
    )


def test_criterion_3_itr_superiority(bench):
    result, _ = bench
    samples = metric_samples(result, "itr")
    medians = {algorithm: median(values) for algorithm, values in samples.items()}
    baselines_high = medians[FCFS] > 0.7 and medians[RANDOM] > 0.7
    lines = [
        "medians: "
        + ", ".join(f"{algorithm}={medians[algorithm]:.3f}" for algorithm in samples)
    ]
    any_variant_ok = False
    for variant in GA_ALGORITHMS:
        clauses = [medians[variant] < 0.6]
        for baseline in (FCFS, RANDOM):
            u, p = mann_whitney_u(samples[variant], samples[baseline])
            clauses.append(p < 0.01 and medians[variant] < medians[baseline])
            lines.append(f"{variant} vs {baseline}: U={u:.1f}, p={p:.2e}")
        if all(clauses):
            any_variant_ok = True
    verdict(
        3,
        "ITR superiority",
        any_variant_ok and baselines_high,
        "need a GA variant with median < 0.6 and p < 0.01 below each baseline, "
        "plus baseline medians > 0.7; " + "; ".join(lines),
    )


def test_criterion_4_trip_superiority(bench):
    result, _ = bench
    samples = metric_samples(result, "trips")
    medians = {algorithm: median(values) for algorithm, values in samples.items()}
    details = [
        ", ".join(f"{algorithm}={medians[algorithm]}" for algorithm in samples)
    ]
    passed = True
    for variant in GA_ALGORITHMS:
        if not (medians[variant] <= medians[FCFS] and medians[variant] <= medians[RANDOM]):
            passed = False
        p_values = []
        for baseline in (FCFS, RANDOM):
            _, p = mann_whitney_u(samples[variant], samples[baseline])
            p_values.append(p)
        details.append(
            f"{variant} p-values vs fcfs/random: {p_values[0]:.2e}/{p_values[1]:.2e}"
        )
        if min(p_values) >= 0.05:
            passed = False
    verdict(4, "trip superiority", passed, "medians " + "; ".join(details))


def test_criterion_5_convergence_shape(bench):
    result, _ = bench
    baseline_fitness = {
        algorithm: {r.trial: r.fitness for r in result.ok_records_for(algorithm)}
        for algorithm in (FCFS, RANDOM)
    }
    records = ga_records(result)
    stable = 0
    beats_early = 0
    for record in records:
        series = [stats.best_fitness for stats in record.history]
        assert len(series) == 200
        assert all(b >= a for a, b in zip(series, series[1:])), (
            f"best fitness decreased in trial {record.trial} ({record.algorithm})"
        )
        if series[199] <= 1.05 * series[99]:
            stable += 1
        generation_10_mean = record.history[9].mean_fitness
        if generation_10_mean > baseline_fitness[FCFS][record.trial] and (
            generation_10_mean > baseline_fitness[RANDOM][record.trial]
        ):
            beats_early += 1
    passed = stable >= 0.80 * len(records) and beats_early >= 0.90 * len(records)
    verdict(
        5,
        "convergence shape",
        passed,
        f"best fitness non-decreasing in 50/50 runs; generation-200 best within "
        f"5% of generation-100 best in {stable}/50 runs (need 40); generation-10 "
        f"mean above both baselines in {beats_early}/50 trials (need 45)",
    )


def test_criterion_6_ordered_init_head_start(bench):
    result, _ = bench
    world = result.world
    exams = list(world.exams)
    requests = []
    probe = 0
    while len(requests) < 25 and probe < 10_000:
        request = generate_request(exams, world.config, 5, seed=1_000_000 + probe)
        acts = set(request.acts)
        if any(rule.first in acts and rule.second in acts for rule in world.rules):
            requests.append((request, probe))
        probe += 1
    assert len(requests) == 25, "could not find 25 rule-active requests"
    wins = 0
    for request, seed in requests:
        space = filter_search_space(world.slots, request)
        initial_means = {}
        for algorithm in GA_ALGORITHMS:
            run = evolve(space, request, world.rules, GAConfig(generations=1), algorithm, seed)
            initial_means[algorithm] = run.history[0].mean_fitness
        if initial_means[GA_ORDERED] >= initial_means[GA_UNORDERED]:
            wins += 1
    verdict(
        6,
        "ordered-init head start",
        wins >= math.ceil(0.70 * 25),
        f"ordered initial mean fitness >= unordered in {wins}/25 paired runs (need 18)",
    )


def enumerate_optimum(space, request, rules):
    best = -1.0
    for genes in itertools.product(*(range(len(b)) for b in space.per_act_slots)):
        schedule = decode(Individual(tuple(genes)), space)
        score = fitness(compute_penalties(schedule, request, rules))
        if score > best:
            best = score
    return best


def test_criterion_7_small_instance_optimality(bench):
    result, _ = bench
    world = result.world
    hits = 0
    misses = []
    for i in range(20):
        rng = random.Random(f"small-instance/{i}")
        request_seed = rng.randrange(2**32)
        ga_seed = rng.randrange(2**32)
        request = generate_request(list(world.exams), world.config, 3, seed=request_seed)
        full = filter_search_space(world.slots, request)
        space = SearchSpace(
            per_act_slots=tuple(block[:8] for block in full.per_act_slots)
        )
        assert all(1 <= len(block) <= 8 for block in space.per_act_slots)
        optimum = enumerate_optimum(space, request, world.rules)
        best_scores = {}
        for algorithm in GA_ALGORITHMS:
            run = evolve(space, request, world.rules, GAConfig(), algorithm, ga_seed)
            best_scores[algorithm] = fitness(
                compute_penalties(run.best, request, world.rules)
            )
        if any(abs(score - optimum) <= 1e-12 for score in best_scores.values()):
            hits += 1
        else:
            gap = optimum - max(best_scores.values())
            misses.append(f"instance {i}: optimum {optimum:.6f}, gap {gap:.2e}")
    verdict(
        7,
        "small-instance optimality",
        hits >= math.ceil(0.90 * 20),
        f"exhaustive optimum attained on {hits}/20 instances (need 18)"
        + ("; missed -> " + "; ".join(misses) if misses else ""),
    )


# Criterion 8: randomized property suites, 1000 cases per property.

PROPERTY_CASES = 1000

PROPERTY_SPACE = SearchSpace(
    per_act_slots=tuple(
        tuple(
            make_slot(
                id=f"E0{act}-{i}",
                exam=f"E0{act}",
                facility="F1" if i % 2 else "F2",
                start=i * MINUTES_PER_DAY + 540 + act * 120,
                duration=30,
            )
            for i in range(4)
        )
        for act in range(3)
    )
)


@st.composite
def disjoint_slot_pairs(draw):
    duration = draw(st.integers(min_value=1, max_value=120))
    minute = draw(st.integers(min_value=0, max_value=MINUTES_PER_DAY - duration))
    day = draw(st.integers(min_value=0, max_value=5))
    other_duration = draw(st.integers(min_value=1, max_value=120))
    other_minute = draw(
        st.integers(min_value=0, max_value=MINUTES_PER_DAY - other_duration)
    )
    other_day = draw(st.integers(min_value=0, max_value=5))
    return (
        make_slot(id="A", start=day * MINUTES_PER_DAY + minute, duration=duration),
        make_slot(
            id="B",
            start=other_day * MINUTES_PER_DAY + other_minute,
            duration=other_duration,
        ),
    )


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(pair=disjoint_slot_pairs())
def property_overlap_symmetry(pair):
    a, b = pair
    overlap = max(a.start, b.start) < min(a.end, b.end)
    assert slots_overlap(a, b) == slots_overlap(b, a)
    assert slots_overlap(a, b) == overlap
    assert schedule_counts(make_schedule(a, b), ()).overlaps == overlap


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(
    gap=st.integers(min_value=0, max_value=400),
    same_facility=st.booleans(),
)
def property_trip_and_travel_boundaries(gap, same_facility):
    schedule = make_schedule(
        make_slot(id="A", facility="F1", start=540, duration=30),
        make_slot(
            id="B",
            facility="F1" if same_facility else "F2",
            start=570 + gap,
            duration=30,
        ),
    )
    segments = len(segment_trips(schedule))
    counts = schedule_counts(schedule, ())
    if same_facility:
        assert segments == counts.trips == (1 if gap <= 120 else 2)
        assert check_travel_gaps(schedule) == []
        assert counts.transfers == 0
    else:
        assert segments == counts.trips == 2
        assert bool(check_travel_gaps(schedule)) == (gap < 180)
        assert counts.transfers == (gap < 180)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(
    lo=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
def property_fitness_monotone(lo, delta):
    f_lo = fitness(PenaltyBreakdown(0, 0, 0, 0, lo, 0))
    f_hi = fitness(PenaltyBreakdown(0, 0, 0, 0, lo + delta, 0))
    assert 0 < f_hi < f_lo <= 1


gene_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(
    genes_a=gene_strategy,
    genes_b=gene_strategy,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def property_one_hot_preserved(genes_a, genes_b, seed):
    rng = random.Random(seed)
    population = [Individual(genes_a), Individual(genes_b)]
    config = GAConfig(population=7, tournament_k=2)
    for child in next_generation(population, [0.5, 0.5], PROPERTY_SPACE, config, rng):
        for act, gene in enumerate(child.genes):
            assert 0 <= gene < len(PROPERTY_SPACE.per_act_slots[act])
        assert len(decode(child, PROPERTY_SPACE)) == 3


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(
    minutes=st.lists(
        st.integers(min_value=0, max_value=600), min_size=2, max_size=5, unique=True
    )
)
def property_itr_in_unit_interval(minutes):
    slots = [
        make_slot(id=f"S{i}", start=i * MINUTES_PER_DAY + 540 + m, duration=30)
        for i, m in enumerate(sorted(minutes))
    ]
    ratio = solution_metrics(make_schedule(*slots), (), len(slots)).itr
    assert 0 <= ratio < 1


mw_samples = st.lists(
    st.integers(min_value=0, max_value=10).map(float), min_size=2, max_size=20
)


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(sample_a=mw_samples, sample_b=mw_samples)
def property_mann_whitney_range_and_symmetry(sample_a, sample_b):
    u_ab, p_ab = mann_whitney_u(sample_a, sample_b)
    u_ba, p_ba = mann_whitney_u(sample_b, sample_a)
    assert u_ab == u_ba
    assert p_ab == pytest.approx(p_ba)
    assert 0 <= u_ab <= len(sample_a) * len(sample_b)


@st.composite
def checker_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    slots = []
    for i in range(n):
        duration = draw(st.sampled_from([15, 30, 60]))
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
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["E01", "E02", "E03"]),
                st.sampled_from(["E01", "E02", "E03"]),
                st.sampled_from(list(RuleLogic)),
                st.sampled_from([30, 60, 1440]),
            ).filter(lambda s: s[0] != s[1]),
            max_size=3,
        )
    )
    rules = [
        IncompatibilityRule(first=a, second=b, logic=logic, gap_minutes=gap)
        for a, b, logic, gap in specs
    ]
    return make_schedule(*slots), rules


@settings(max_examples=PROPERTY_CASES, deadline=None)
@given(case=checker_cases())
def property_checkers_match_brute_force(case):
    schedule, rules = case
    ordered = schedule.sorted_by_start()

    expected_overlaps = sorted(
        (
            frozenset({ordered[i][0], ordered[j][0]})
            for i in range(len(ordered))
            for j in range(i + 1, len(ordered))
            if slots_overlap(ordered[i][1], ordered[j][1])
        ),
        key=sorted,
    )
    got_overlaps = sorted(map(frozenset, find_overlaps(schedule)), key=sorted)
    assert got_overlaps == expected_overlaps

    expected_incompat = []
    for rule in rules:
        for act_1, slot_1 in schedule.assignments:
            for act_2, slot_2 in schedule.assignments:
                if act_1 == act_2 or (slot_1.exam, slot_2.exam) != (rule.first, rule.second):
                    continue
                if rule.logic is RuleLogic.BEFORE:
                    ok = slot_2.start - slot_1.end >= rule.gap_minutes
                elif rule.logic is RuleLogic.AFTER:
                    ok = slot_1.start - slot_2.end >= rule.gap_minutes
                else:
                    first, second = sorted((slot_1, slot_2), key=lambda s: (s.start, s.end))
                    ok = second.start - first.end >= rule.gap_minutes
                if not ok:
                    expected_incompat.append((act_1, act_2))
    got_incompat = sorted(check_incompatibilities(schedule, rules))
    assert got_incompat == sorted(expected_incompat)

    expected_travel = [
        (a[0], b[0])
        for a, b in zip(ordered, ordered[1:])
        if a[1].facility != b[1].facility and b[1].start - a[1].end < 180
    ]
    assert check_travel_gaps(schedule) == expected_travel

    counts = schedule_counts(schedule, rules)
    assert counts.overlaps == len(expected_overlaps)
    assert counts.breaches == len(expected_incompat)
    assert counts.transfers == len(expected_travel)


def test_criterion_8_property_suites():
    properties = [
        property_overlap_symmetry,
        property_trip_and_travel_boundaries,
        property_fitness_monotone,
        property_one_hot_preserved,
        property_itr_in_unit_interval,
        property_mann_whitney_range_and_symmetry,
        property_checkers_match_brute_force,
    ]
    for check in properties:
        check()
    verdict(
        8,
        "property suites",
        True,
        f"{len(properties)} randomized properties held over "
        f"{PROPERTY_CASES} cases each",
    )
