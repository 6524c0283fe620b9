"""Benchmark harness: trial grid, seed streams, aggregation tables."""

import csv
import os
import re
import signal
import threading
import time
from dataclasses import fields, replace

import pytest

import medsched.bench as bench
from medsched.bench import (
    ALL_ALGORITHMS,
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
from medsched.model import MINUTES_PER_DAY, ScheduleRequest

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
            assert run_algorithm(algorithm, small_world, request, SMALL_GA, 7, 0) == evolve(
                space, request, small_world.rules, SMALL_GA, algorithm, 7
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

    def test_shifting_slots_and_start_day_by_whole_days_changes_nothing(self, default_world):
        # Scores read days only relative to the request's start day, so
        # moving every slot and every start day k days later moves no answer.
        days = 3
        shifted = replace(
            default_world,
            slots=[
                slot._replace(start=slot.start + days * MINUTES_PER_DAY)
                for slot in default_world.slots
            ],
        )
        config = GAConfig(population=30, generations=20)
        for trial in range(10):
            request_seed, ga_seed, random_seed = trial_seeds(default_world.config.seed, trial)
            request = generate_request(
                list(default_world.exams), default_world.config, 5, seed=request_seed
            )
            later = replace(request, start_day=request.start_day + days)
            for algorithm in ALL_ALGORITHMS:
                record, moved = (
                    solve_cell(algorithm, world, asked, config, ga_seed, random_seed, trial)
                    for world, asked in ((default_world, request), (shifted, later))
                )
                assert [slot.id for _, slot in moved.schedule.assignments] == [
                    slot.id for _, slot in record.schedule.assignments
                ]
                assert (moved.penalties, moved.fitness, moved.metrics, moved.history) == (
                    record.penalties, record.fitness, record.metrics, record.history
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

    def test_more_acts_than_slots_fails_every_cell(self, small_world, monkeypatch):
        # One act more than the exam has slots on its last day.
        exam = small_world.exams[0].id
        last_day = max(slot.day for slot in small_world.slots if slot.exam == exam)
        slots = sum(slot.exam == exam and slot.day == last_day for slot in small_world.slots)
        request = ScheduleRequest(acts=(exam,) * (slots + 1), start_day=last_day)
        monkeypatch.setattr(bench, "generate_request", lambda *args, **kwargs: request)
        result = run_bench(BenchConfig(trials=1, ga=SMALL_GA), small_world)
        assert [r.algorithm for r in result.records] == list(ALL_ALGORITHMS)
        for record in result.records:
            assert record.error == (
                f"UnschedulableError: more acts than candidate slots for {exam} "
                f"(acts {slots + 1}, slots {slots}) under start_day={last_day}"
            )


# Each grid and the forks two workers make for it: this process is the
# first worker, so one child, and none without a GA cell.
WORKER_GRIDS = {
    "3 trials x 4 algorithms": (SMALL_BENCH, 1),
    "ga-ordered alone": (replace(SMALL_BENCH, algorithms=(GA_ORDERED,)), 1),
    "1 trial x 4 algorithms": (replace(SMALL_BENCH, trials=1), 1),
    "baselines only": (replace(SMALL_BENCH, algorithms=(FCFS, RANDOM)), 0),
}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    def test_usable_cpus_is_the_affinity_where_a_fork_is_safe(self, monkeypatch):
        assert bench.usable_cpus() == len(os.sched_getaffinity(0))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert bench.usable_cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert bench.usable_cpus() == 1

    @pytest.mark.parametrize(("config", "forks"), WORKER_GRIDS.values(), ids=WORKER_GRIDS)
    def test_worker_count_does_not_change_outputs(
        self, small_world, tmp_path, monkeypatch, config, forks
    ):
        forked = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(os.getpid()) or real_fork())
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(bench, "usable_cpus", lambda workers=workers: workers)
            results[workers] = run_bench(config, small_world)
            write_bench_csvs(results[workers], tmp_path / str(workers))
        assert len(forked) == forks
        assert all(record.error is None for record in results[2].records)
        assert results[1] == results[2]
        for path in (tmp_path / "1").iterdir():
            assert path.read_bytes() == (tmp_path / "2" / path.name).read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_this_process_runs_the_first_share(self, small_world, monkeypatch, cpus):
        # Each cell records the process it ran in as its error text.
        def where(algorithm, world, request, ga, ga_seed, random_seed, trial):
            return TrialRecord(algorithm, trial, error=str(os.getpid()))

        forked = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forked.append(os.getpid()) or real_fork())
        monkeypatch.setattr(bench, "solve_cell", where)
        monkeypatch.setattr(bench, "usable_cpus", lambda: cpus)
        result = run_bench(replace(SMALL_BENCH, trials=1), small_world)
        ran_in = {r.algorithm: r.error for r in result.records}
        here = str(os.getpid())
        if cpus == 1:
            assert forked == []
            assert set(ran_in.values()) == {here}
        else:
            assert len(forked) == 1
            assert ran_in[GA_ORDERED] == ran_in[FCFS] == here
            assert ran_in[GA_UNORDERED] == ran_in[RANDOM] != here
        assert_no_child_left()

    @pytest.mark.parametrize(
        ("die", "error"),
        [
            (lambda: os._exit(3), "worker exited with status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "worker killed by signal 9"),
            (lambda: os._exit(0), "worker sent an incomplete result"),
        ],
        ids=["status 3", "killed", "short result"],
    )
    def test_dead_worker_fails_its_share_only(self, small_world, monkeypatch, die, error):
        real = bench.solve_cell

        def dies_on_unordered(algorithm, *args):
            if algorithm == GA_UNORDERED:
                die()
            return real(algorithm, *args)

        monkeypatch.setattr(bench, "solve_cell", dies_on_unordered)
        monkeypatch.setattr(bench, "usable_cpus", lambda: 2)
        result = run_bench(replace(SMALL_BENCH, trials=1), small_world)
        # The GA cells are dealt first: this process, the first worker, runs
        # ga-ordered and fcfs, and the forked second ga-unordered and random.
        assert [r.algorithm for r in result.records] == list(ALL_ALGORITHMS)
        assert {r.algorithm: r.error for r in result.records} == {
            GA_ORDERED: None, GA_UNORDERED: error, FCFS: None, RANDOM: error
        }
        _, ga_seed, random_seed = trial_seeds(small_world.config.seed, 0)
        for record in result.records:
            if record.error is None:
                assert record == solve_cell(
                    record.algorithm, small_world, result.requests[0], SMALL_GA, ga_seed, random_seed, 0
                )
        assert_no_child_left()

    def test_interrupted_parent_kills_its_workers(self, small_world, monkeypatch):
        # Each worker sleeps in its first cell; the parent, the first worker,
        # is interrupted by an alarm inside its own share.
        monkeypatch.setattr(bench, "solve_cell", lambda *args: time.sleep(60))
        monkeypatch.setattr(bench, "usable_cpus", lambda: 2)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)  # long after the fork
            with pytest.raises(KeyboardInterrupt):
                run_bench(SMALL_BENCH, small_world)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        assert_no_child_left()


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
        flag_names = {
            "overlap": "overlap_ok",
            "incompatibility": "compatibility_ok",
            "travel_gap": "travel_ok",
        }
        for algorithm, constraint, percent in rows:
            assert constraint in flag_names
            assert 0.0 <= percent <= 100.0
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
