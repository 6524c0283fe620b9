"""Benchmark harness: trial grid, seed streams, aggregation tables."""

import csv
import re
from dataclasses import fields

import pytest

import medsched.bench as bench
from medsched.bench import (
    ALL_ALGORITHMS,
    CONSTRAINT_NAMES,
    FCFS,
    GA_ALGORITHMS,
    GA_ORDERED,
    GA_UNORDERED,
    RANDOM,
    BenchConfig,
    BenchResult,
    TrialRecord,
    convergence_rows,
    fulfillment_rows,
    metric_samples,
    run_algorithm,
    run_bench,
    solve_cell,
    stats_rows,
    trial_seeds,
    value_rows,
    write_bench_csvs,
)
from medsched.datagen import WorldConfig, generate_request, generate_world
from medsched.ga import GAConfig, evolve, filter_search_space
from medsched.model import ScheduleRequest

SMALL_WORLD_CONFIG = WorldConfig(
    seed=5, horizon_days=6, facilities=2, rooms_per_facility=2, rule_count=8
)
SMALL_GA = GAConfig(population=12, generations=4, tournament_k=3)
SMALL_BENCH = BenchConfig(trials=3, acts_per_request=4, ga=SMALL_GA)


@pytest.fixture(scope="module")
def small_world():
    return generate_world(SMALL_WORLD_CONFIG)


@pytest.fixture(scope="module")
def small_result(small_world):
    return run_bench(SMALL_BENCH, world=small_world)


class TestBenchConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": 0},
            {"acts_per_request": 0},
            {"algorithms": ()},
            {"algorithms": ("ga-ordered", "simulated-annealing")},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            BenchConfig(**overrides)

    @pytest.mark.parametrize(
        ("algorithms", "named"),
        [
            (("fcfs", "fcfs"), "['fcfs']"),
            (("random", "fcfs", "random", "fcfs"), "['random', 'fcfs']"),
        ],
    )
    def test_rejects_a_repeated_algorithm(self, algorithms, named):
        # A repeat would run twice per trial and write every row twice.
        with pytest.raises(ValueError, match=re.escape(f"more than once: {named}")):
            BenchConfig(algorithms=algorithms)

    def test_defaults(self):
        config = BenchConfig()
        assert config.trials == 25
        assert config.acts_per_request == 5
        assert config.algorithms == ALL_ALGORITHMS

    def test_fields_have_no_world(self):
        # ``run_bench`` takes the world it benchmarks as an argument.
        names = [entry.name for entry in fields(BenchConfig)]
        assert names == ["trials", "acts_per_request", "algorithms", "ga"]


class TestTrialSeeds:
    def test_deterministic_per_trial(self):
        assert trial_seeds(42, 3) == trial_seeds(42, 3)

    def test_trials_and_bases_get_distinct_streams(self):
        seen = {trial_seeds(42, t) for t in range(50)}
        assert len(seen) == 50
        assert trial_seeds(42, 0) != trial_seeds(43, 0)

    def test_three_independent_seeds(self):
        request_seed, ga_seed, random_seed = trial_seeds(0, 0)
        assert len({request_seed, ga_seed, random_seed}) == 3
        for seed in (request_seed, ga_seed, random_seed):
            assert 0 <= seed < 2**32


class TestRunAlgorithm:
    def test_unknown_algorithm_rejected(self, small_world):
        request = generate_request(list(small_world.exams), SMALL_WORLD_CONFIG, 3, seed=1)
        with pytest.raises(ValueError):
            run_algorithm("tabu", small_world, request, SMALL_GA, 0, 0)

    def test_ga_returns_history_baselines_do_not(self, small_world):
        request = generate_request(list(small_world.exams), SMALL_WORLD_CONFIG, 3, seed=1)
        for algorithm in GA_ALGORITHMS:
            schedule, history = run_algorithm(
                algorithm, small_world, request, SMALL_GA, 7, 7
            )
            assert len(history) == SMALL_GA.generations
            assert len(schedule) >= 1
        for algorithm in (FCFS, RANDOM):
            schedule, history = run_algorithm(
                algorithm, small_world, request, SMALL_GA, 7, 7
            )
            assert history is None
            assert len(schedule) >= 1

    def test_ga_cell_is_evolve_with_the_cell_seed(self, small_world):
        request = generate_request(list(small_world.exams), SMALL_WORLD_CONFIG, 3, seed=1)
        space = filter_search_space(small_world.slots, request)
        for algorithm in GA_ALGORITHMS:
            result = evolve(space, request, small_world.rules, SMALL_GA, algorithm, 7)
            assert run_algorithm(algorithm, small_world, request, SMALL_GA, 7, 0) == (
                result.best,
                result.history,
            )


class TestSolveCell:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_bench_cell_is_solve_cell(self, small_world, small_result, algorithm):
        # Each cell's record is solve_cell's on the trial's request and seeds.
        for trial, request in enumerate(small_result.requests):
            _, ga_seed, random_seed = trial_seeds(small_world.config.seed, trial)
            (record,) = [
                r for r in small_result.records if (r.algorithm, r.trial) == (algorithm, trial)
            ]
            assert record == solve_cell(
                algorithm, small_world, request, SMALL_GA, ga_seed, random_seed, trial
            )

    def test_failed_cell_has_no_result(self, small_world, monkeypatch):
        def fail(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "run_algorithm", fail)
        config = BenchConfig(trials=1, acts_per_request=3, algorithms=(FCFS,), ga=SMALL_GA)
        (record,) = run_bench(config, world=small_world).records
        assert record == TrialRecord(FCFS, 0, error="RuntimeError: boom")
        assert (record.schedule, record.penalties, record.fitness, record.metrics) == (None,) * 4


class TestRunBench:
    def test_grid_shape(self, small_result):
        assert len(small_result.requests) == 3
        assert len(small_result.records) == 3 * 4
        for algorithm in ALL_ALGORITHMS:
            trials = [r.trial for r in small_result.records if r.algorithm == algorithm]
            assert trials == [0, 1, 2]

    def test_all_cells_succeed_and_carry_scores(self, small_result):
        for record in small_result.records:
            assert record.error is None
            assert record.schedule is not None
            assert record.fitness == pytest.approx(1 / (1 + record.penalties.total()))
            if record.algorithm in GA_ALGORITHMS:
                assert len(record.history) == SMALL_GA.generations
            else:
                assert record.history is None

    def test_reuses_given_world(self, small_world, small_result):
        assert small_result.world is small_world

    def test_requires_a_world(self):
        with pytest.raises(TypeError):
            run_bench(SMALL_BENCH)

    def test_deterministic(self, small_world):
        config = BenchConfig(trials=2, acts_per_request=3, ga=SMALL_GA)
        assert run_bench(config, world=small_world) == run_bench(config, world=small_world)

    def test_requests_paired_across_algorithms(self, small_result):
        # Every algorithm sees the same request in a given trial; GA variants
        # also share the evolution seed, so comparisons are paired.
        by_trial = {}
        for record in small_result.records:
            by_trial.setdefault(record.trial, []).append(record.algorithm)
        assert all(sorted(algos) == sorted(ALL_ALGORITHMS) for algos in by_trial.values())
        assert len({r.acts for r in small_result.requests}) == len(small_result.requests)

    def test_partial_failure_recorded_not_raised(self, small_world, monkeypatch):
        real = bench.run_algorithm

        def flaky(algorithm, world, request, ga, ga_seed, random_seed):
            if algorithm == FCFS and request is world_requests[0]:
                raise RuntimeError("boom")
            return real(algorithm, world, request, ga, ga_seed, random_seed)

        world_requests = []
        original_generate = bench.generate_request

        def tracking_generate(*args, **kwargs):
            request = original_generate(*args, **kwargs)
            world_requests.append(request)
            return request

        monkeypatch.setattr(bench, "generate_request", tracking_generate)
        monkeypatch.setattr(bench, "run_algorithm", flaky)
        result = run_bench(SMALL_BENCH, world=small_world)
        failed = [r for r in result.records if r.error is not None]
        assert len(failed) == 1
        assert failed[0].algorithm == FCFS
        assert failed[0].trial == 0
        assert failed[0].error == "RuntimeError: boom"
        assert failed[0].schedule is None and failed[0].fitness is None
        ok = [r for r in result.records if r.error is None]
        assert len(ok) == 3 * 4 - 1
        assert result.ok_records_for(FCFS) == [r for r in ok if r.algorithm == FCFS]

    def test_unschedulable_request_fails_every_cell(self, small_world, monkeypatch):
        # No slot lies on or after the horizon's end, so every block is empty.
        exams = tuple(exam.id for exam in small_world.exams[:2])
        request = ScheduleRequest(acts=exams, start_day=SMALL_WORLD_CONFIG.horizon_days)
        monkeypatch.setattr(bench, "generate_request", lambda *args, **kwargs: request)
        result = run_bench(BenchConfig(trials=1, ga=SMALL_GA), small_world)
        assert [r.algorithm for r in result.records] == list(ALL_ALGORITHMS)
        for record in result.records:
            assert record.error == (
                f"UnschedulableError: no candidate slots for {', '.join(exams)} "
                f"under start_day={SMALL_WORLD_CONFIG.horizon_days}"
            )
            assert record.schedule is None and record.metrics is None


class TestAggregationRows:
    def test_convergence_row_counts_and_values(self, small_result):
        rows = convergence_rows(small_result)
        by_algorithm = {}
        for algorithm, generation, best, mean in rows:
            by_algorithm.setdefault(algorithm, []).append((generation, best, mean))
        for algorithm in GA_ALGORITHMS:
            series = by_algorithm[algorithm]
            assert [g for g, _, _ in series] == list(range(SMALL_GA.generations))
            records = small_result.ok_records_for(algorithm)
            for g, best, mean in series:
                expected_best = sum(r.history[g].best_fitness for r in records) / len(records)
                expected_mean = sum(r.history[g].mean_fitness for r in records) / len(records)
                assert best == pytest.approx(expected_best)
                assert mean == pytest.approx(expected_mean)
        for algorithm in (FCFS, RANDOM):
            series = by_algorithm[algorithm]
            assert len(series) == SMALL_GA.generations
            levels = {(best, mean) for _, best, mean in series}
            assert len(levels) == 1  # flat baseline line
            records = small_result.ok_records_for(algorithm)
            expected = sum(r.fitness for r in records) / len(records)
            assert series[0][1] == pytest.approx(expected)

    def test_baselines_get_one_row_when_generations_zero(self, small_world):
        config = BenchConfig(
            trials=1,
            acts_per_request=2,
            algorithms=(FCFS, RANDOM),
            ga=GAConfig(population=5, generations=0, tournament_k=2),
        )
        rows = convergence_rows(run_bench(config, world=small_world))
        assert [row[0] for row in rows] == [FCFS, RANDOM]

    def test_fulfillment_percentages(self, small_result):
        rows = fulfillment_rows(small_result)
        assert len(rows) == 4 * 3
        for algorithm, constraint, percent in rows:
            assert constraint in CONSTRAINT_NAMES
            assert 0.0 <= percent <= 100.0
        flag_names = {
            "overlap": "overlap_ok",
            "incompatibility": "compatibility_ok",
            "travel_gap": "travel_ok",
        }
        for algorithm, constraint, percent in rows:
            records = small_result.ok_records_for(algorithm)
            flags = [getattr(r.metrics, flag_names[constraint]) for r in records]
            assert percent == pytest.approx(100.0 * sum(flags) / len(flags))

    def test_value_rows_and_samples(self, small_result):
        itr_rows = value_rows(small_result, "itr")
        assert len(itr_rows) == 12
        samples = metric_samples(small_result, "itr")
        for algorithm in ALL_ALGORITHMS:
            row_values = [v for a, _, v in itr_rows if a == algorithm and v != ""]
            assert row_values == samples[algorithm]
        trips_rows = value_rows(small_result, "trips")
        for _, _, value in trips_rows:
            assert isinstance(value, int) and value >= 1

    def test_undefined_itr_becomes_blank_cell(self, small_world):
        config = BenchConfig(
            trials=2,
            acts_per_request=1,  # single-assignment schedules: ITR undefined
            algorithms=(FCFS, RANDOM),
            ga=SMALL_GA,
        )
        result = run_bench(config, world=small_world)
        assert all(value == "" for _, _, value in value_rows(result, "itr"))
        assert metric_samples(result, "itr") == {FCFS: [], RANDOM: []}
        for row in stats_rows(result):
            if row[0] == "itr":
                assert row[3] == "" and row[4] == ""
            else:
                assert row[3] != ""

    def test_stats_rows_cover_all_pairs(self, small_result):
        rows = stats_rows(small_result)
        assert len(rows) == 2 * 6  # two metrics, C(4,2) algorithm pairs
        for metric, algo_a, algo_b, u, p in rows:
            assert metric in ("itr", "trips")
            assert algo_a != algo_b
            if u != "":
                samples = metric_samples(small_result, metric)
                assert 0 <= u <= len(samples[algo_a]) * len(samples[algo_b])
                assert 0 < p <= 1


class TestWriteBenchCsvs:
    def test_five_files_with_expected_headers(self, small_result, tmp_path):
        paths = write_bench_csvs(small_result, tmp_path / "out")
        assert [p.name for p in paths] == [
            "convergence.csv",
            "fulfillment.csv",
            "itr.csv",
            "trips.csv",
            "stats.csv",
        ]
        expected_headers = {
            "convergence.csv": ["algorithm", "generation", "best_fitness", "mean_fitness"],
            "fulfillment.csv": ["algorithm", "constraint", "percent"],
            "itr.csv": ["algorithm", "trial", "itr"],
            "trips.csv": ["algorithm", "trial", "trips"],
            "stats.csv": ["metric", "algo_a", "algo_b", "u", "p"],
        }
        for path in paths:
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == expected_headers[path.name]
            assert len(rows) > 1
            assert all(len(row) == len(rows[0]) for row in rows)

    def test_byte_identical_across_runs(self, small_world, tmp_path):
        config = BenchConfig(trials=2, acts_per_request=3, ga=SMALL_GA)
        first = write_bench_csvs(run_bench(config, world=small_world), tmp_path / "a")
        second = write_bench_csvs(run_bench(config, world=small_world), tmp_path / "b")
        for path_a, path_b in zip(first, second):
            assert path_a.read_bytes() == path_b.read_bytes()
