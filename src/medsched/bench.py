"""Batch benchmark: many trials per algorithm on one world, aggregated to CSV.

Each trial draws a fresh request against the shared world, runs every
selected algorithm on it, and records fitness, penalties, metrics and (for
the evolutionary variants) per-generation telemetry.  Aggregation emits the
five benchmark tables: convergence, fulfillment, raw ITR, raw trips, and
pairwise rank-sum comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Any, Iterable, Sequence

from .baselines import fcfs_schedule, random_schedule
from .datagen import World, generate_request
from .fitness import PenaltyBreakdown, compute_penalties, fitness
from .ga import (
    GA_ORDERED,
    GA_UNORDERED,
    GAConfig,
    GenerationStats,
    evolve,
    filter_search_space,
)
from .metrics import SolutionMetrics, mann_whitney_u, solution_metrics
from .model import IncompatibilityRule, Schedule, ScheduleRequest
from .worldio import write_csv

FCFS = "fcfs"
RANDOM = "random"
GA_ALGORITHMS = (GA_ORDERED, GA_UNORDERED)
ALL_ALGORITHMS = (*GA_ALGORITHMS, FCFS, RANDOM)
CONSTRAINT_NAMES = ("overlap", "incompatibility", "travel_gap")
STATS_HEADER = ("metric", "algo_a", "algo_b", "u", "p")


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run on a given world: trial protocol and algorithm roster."""

    trials: int = 25
    acts_per_request: int = 5
    algorithms: tuple[str, ...] = ALL_ALGORITHMS
    ga: GAConfig = field(default_factory=GAConfig)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.acts_per_request < 1:
            raise ValueError("acts_per_request must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithms must be non-empty")
        unknown = [a for a in self.algorithms if a not in ALL_ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (algorithm, trial) cell; error text when the run failed."""

    algorithm: str
    trial: int
    schedule: Schedule | None
    penalties: PenaltyBreakdown | None
    fitness: float | None
    metrics: SolutionMetrics | None
    history: tuple[GenerationStats, ...] | None = None
    error: str | None = None


@dataclass(frozen=True)
class BenchResult:
    config: BenchConfig
    world: World
    requests: tuple[ScheduleRequest, ...]
    records: tuple[TrialRecord, ...]

    def ok_records_for(self, algorithm: str) -> list[TrialRecord]:
        return [r for r in self.records if r.algorithm == algorithm and r.error is None]


def trial_seeds(base_seed: int, trial: int) -> tuple[int, int, int]:
    """(request, ga, random-baseline) seeds for one trial.

    A pure function of (base_seed, trial), so trial t's inputs do not move
    when the trial count changes, and both evolutionary variants share the
    same ga seed (paired comparisons).
    """
    rng = random.Random(f"{base_seed}/bench/{trial}")
    return (
        rng.randrange(2**32),
        rng.randrange(2**32),
        rng.randrange(2**32),
    )


def run_algorithm(
    algorithm: str,
    world: World,
    request: ScheduleRequest,
    ga: GAConfig,
    ga_seed: int,
    random_seed: int,
) -> tuple[Schedule, tuple[GenerationStats, ...] | None]:
    """One solve; returns the schedule and, for evolutionary runs, the telemetry.

    Any act without a candidate after filtering raises ``UnschedulableError``,
    naming the acts and filters, for every algorithm; bench records a failed cell.
    """
    space = filter_search_space(world.slots, request)
    if algorithm in GA_ALGORITHMS:
        result = evolve(space, request, world.rules, ga, algorithm, ga_seed)
        return result.best, result.history
    if algorithm == FCFS:
        return fcfs_schedule(space, request), None
    if algorithm == RANDOM:
        return random_schedule(space, request, random.Random(random_seed)), None
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_bench(config: BenchConfig, world: World) -> BenchResult:
    """Run the full trial grid on ``world``; per-cell failures are recorded, not raised."""
    rules = world.rules
    requests: list[ScheduleRequest] = []
    records: list[TrialRecord] = []
    for trial in range(config.trials):
        request_seed, ga_seed, random_seed = trial_seeds(world.config.seed, trial)
        request = generate_request(
            list(world.exams), world.config, config.acts_per_request, seed=request_seed
        )
        requests.append(request)
        for algorithm in config.algorithms:
            try:
                schedule, history = run_algorithm(
                    algorithm, world, request, config.ga, ga_seed, random_seed
                )
                penalties = compute_penalties(schedule, request, rules)
                records.append(
                    TrialRecord(
                        algorithm=algorithm,
                        trial=trial,
                        schedule=schedule,
                        penalties=penalties,
                        fitness=fitness(penalties),
                        metrics=solution_metrics(schedule, rules, len(request.acts)),
                        history=history,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - per-trial isolation by design
                records.append(
                    TrialRecord(
                        algorithm=algorithm,
                        trial=trial,
                        schedule=None,
                        penalties=None,
                        fitness=None,
                        metrics=None,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return BenchResult(
        config=config, world=world, requests=tuple(requests), records=tuple(records)
    )


def convergence_rows(result: BenchResult) -> list[tuple[Any, ...]]:
    """Per-algorithm, per-generation trial means of best and mean fitness.

    Baselines produce one schedule per trial, so their line is flat: the
    trial-mean fitness replicated across every generation.
    """
    generations = result.config.ga.generations
    rows: list[tuple[Any, ...]] = []
    for algorithm in result.config.algorithms:
        records = result.ok_records_for(algorithm)
        if not records:
            continue
        if algorithm in GA_ALGORITHMS:
            for g in range(generations):
                rows.append(
                    (
                        algorithm,
                        g,
                        fmean(r.history[g].best_fitness for r in records),
                        fmean(r.history[g].mean_fitness for r in records),
                    )
                )
        else:
            level = fmean(r.fitness for r in records)
            for g in range(max(generations, 1)):
                rows.append((algorithm, g, level, level))
    return rows


def fulfillment_rows(result: BenchResult) -> list[tuple[Any, ...]]:
    """Percentage of trials satisfying each constraint, per algorithm."""
    rows: list[tuple[Any, ...]] = []
    for algorithm in result.config.algorithms:
        records = result.ok_records_for(algorithm)
        if not records:
            continue
        flags = {
            "overlap": [r.metrics.overlap_ok for r in records],
            "incompatibility": [r.metrics.compatibility_ok for r in records],
            "travel_gap": [r.metrics.travel_ok for r in records],
        }
        for constraint in CONSTRAINT_NAMES:
            values = flags[constraint]
            rows.append((algorithm, constraint, 100.0 * sum(values) / len(values)))
    return rows


def value_rows(result: BenchResult, metric: str) -> list[tuple[Any, ...]]:
    """Raw per-trial metric values; an undefined ITR becomes a blank cell."""
    rows: list[tuple[Any, ...]] = []
    for algorithm in result.config.algorithms:
        for record in result.ok_records_for(algorithm):
            value = getattr(record.metrics, metric)
            rows.append((algorithm, record.trial, "" if value is None else value))
    return rows


def metric_samples(result: BenchResult, metric: str) -> dict[str, list[float]]:
    """Defined per-trial values of one metric, keyed by algorithm."""
    samples: dict[str, list[float]] = {}
    for algorithm in result.config.algorithms:
        values = [
            getattr(r.metrics, metric)
            for r in result.ok_records_for(algorithm)
            if getattr(r.metrics, metric) is not None
        ]
        samples[algorithm] = values
    return samples


def pairwise_stats(
    metric: str, samples: dict[str, list[float]]
) -> list[tuple[Any, ...]]:
    """One ``STATS_HEADER`` row (U and p) per pair of groups, in key order.

    A pair with an empty group gets blank U and p cells.
    """
    rows: list[tuple[Any, ...]] = []
    names = list(samples)
    for i, algo_a in enumerate(names):
        for algo_b in names[i + 1 :]:
            a, b = samples[algo_a], samples[algo_b]
            if not a or not b:
                rows.append((metric, algo_a, algo_b, "", ""))
                continue
            u, p = mann_whitney_u(a, b)
            rows.append((metric, algo_a, algo_b, u, p))
    return rows


def stats_rows(result: BenchResult) -> list[tuple[Any, ...]]:
    """Pairwise rank-sum comparisons (U and p) for ITR and trips."""
    return [
        row
        for metric in ("itr", "trips")
        for row in pairwise_stats(metric, metric_samples(result, metric))
    ]


def write_bench_csvs(result: BenchResult, output_dir: Path) -> list[Path]:
    """Emit the five benchmark tables into ``output_dir``; returns the paths."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    tables: list[tuple[str, Sequence[str], Iterable[Sequence[Any]]]] = [
        (
            "convergence.csv",
            ("algorithm", "generation", "best_fitness", "mean_fitness"),
            convergence_rows(result),
        ),
        (
            "fulfillment.csv",
            ("algorithm", "constraint", "percent"),
            fulfillment_rows(result),
        ),
        ("itr.csv", ("algorithm", "trial", "itr"), value_rows(result, "itr")),
        ("trips.csv", ("algorithm", "trial", "trips"), value_rows(result, "trips")),
        ("stats.csv", STATS_HEADER, stats_rows(result)),
    ]
    paths = []
    for name, header, rows in tables:
        path = output_dir / name
        write_csv(path, header, rows)
        paths.append(path)
    return paths
