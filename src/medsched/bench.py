"""Batch benchmark: many trials per algorithm on one world, aggregated to CSV.

Each trial draws a fresh request against the shared world, and each selected
algorithm's ``solve_cell`` on it records fitness, penalties, metrics and (for
the evolutionary variants) per-generation telemetry.  Aggregation emits the
five benchmark tables: convergence, fulfillment, raw ITR, raw trips, and
pairwise rank-sum comparisons.

Every (algorithm, trial) cell carries its own seeds, so the cells are
independent runs.  ``run_bench`` deals them to up to one worker per CPU in
this process's affinity, never more than there are GA cells.  This process
is worker 0 and runs the first share itself; each other worker is a forked
child that inherits the world, the config and its cells, and pickles back
only its records.  Records are put back in cell order, so they, and every
output file, are the same for any worker count; with one worker, as under
``taskset -c 0``, nothing forks.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Any, BinaryIO, Iterable, Sequence

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
from .model import Schedule, ScheduleRequest
from .worldio import write_csv

FCFS = "fcfs"
RANDOM = "random"
GA_ALGORITHMS = (GA_ORDERED, GA_UNORDERED)
ALL_ALGORITHMS = (*GA_ALGORITHMS, FCFS, RANDOM)
# Each fulfillment.csv constraint and the ``SolutionMetrics`` flag it counts.
CONSTRAINT_FLAGS = (
    ("overlap", "overlap_ok"),
    ("incompatibility", "compatibility_ok"),
    ("travel_gap", "travel_ok"),
)
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
        repeated = [a for a in dict.fromkeys(self.algorithms) if self.algorithms.count(a) > 1]
        if repeated:
            raise ValueError(f"algorithms given more than once: {repeated}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (algorithm, trial) cell; error text, and no result, when the run failed."""

    algorithm: str
    trial: int
    schedule: Schedule | None = None
    penalties: PenaltyBreakdown | None = None
    fitness: float | None = None
    metrics: SolutionMetrics | None = None
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

    Any act without a candidate after filtering, or an exam with fewer
    candidates than acts, raises ``UnschedulableError`` naming the exams and
    filters, for every algorithm; bench records a failed cell.
    """
    space = filter_search_space(world.slots, request)
    if algorithm in GA_ALGORITHMS:
        return evolve(space, request, world.rules, ga, algorithm, ga_seed)
    if algorithm == FCFS:
        return fcfs_schedule(space), None
    if algorithm == RANDOM:
        return random_schedule(space, random.Random(random_seed)), None
    raise ValueError(f"unknown algorithm {algorithm!r}")


def solve_cell(
    algorithm: str,
    world: World,
    request: ScheduleRequest,
    ga: GAConfig,
    ga_seed: int,
    random_seed: int,
    trial: int,
) -> TrialRecord:
    """``run_algorithm``, then its schedule scored: the one record ``solve`` and ``bench`` report.

    A failed run raises; ``run_bench`` records the error as the cell's.
    """
    schedule, history = run_algorithm(algorithm, world, request, ga, ga_seed, random_seed)
    penalties = compute_penalties(schedule, request, world.rules)
    metrics = solution_metrics(schedule, world.rules, len(request.acts))
    return TrialRecord(algorithm, trial, schedule, penalties, fitness(penalties), metrics, history)


# One (algorithm, trial) cell: (algorithm, trial, request, ga seed, random seed).
Cell = tuple[str, int, ScheduleRequest, int, int]


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers safely.

    A fork needs ``os.fork`` and ``os.sched_getaffinity``, and a process
    with no other thread: a child holds only the forking thread, and any lock
    another thread held stays held in it.
    """
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


def _run_cells(cells: Sequence[Cell], world: World, ga: GAConfig) -> list[TrialRecord]:
    """Each cell's ``solve_cell`` record; a cell that raises gets a failed record."""
    records = []
    for algorithm, trial, request, ga_seed, random_seed in cells:
        try:
            record = solve_cell(algorithm, world, request, ga, ga_seed, random_seed, trial)
        except Exception as exc:  # noqa: BLE001 - per-trial isolation by design
            record = TrialRecord(algorithm, trial, error=f"{type(exc).__name__}: {exc}")
        records.append(record)
    return records


def _fork_worker(cells: Sequence[Cell], world: World, ga: GAConfig) -> tuple[int, BinaryIO]:
    """Fork a child that pickles ``_run_cells(cells, ...)`` into a pipe; (pid, read end).

    The child exits with status 0 after a complete write and 1 on any
    exception, and never returns into the caller's stack.
    """
    # pickle and signal are imported only where a bench forks: at module
    # level they would cost every command about 2.5 ms and 0.5 MB.
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(_run_cells(cells, world, ga), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)  # else the parent's own copy keeps the pipe from reaching EOF
    return pid, open(read_end, "rb")


def _worker_records(cells: Sequence[Cell], data: bytes, status: int) -> list[TrialRecord]:
    """The records a child sent, or a failed record per cell if it died or sent too little."""
    import pickle

    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        try:
            return pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            error = "worker sent an incomplete result"
    elif code > 0:
        error = f"worker exited with status {code}"
    else:
        error = f"worker killed by signal {-code}"
    return [TrialRecord(algorithm, trial, error=error) for algorithm, trial, *_ in cells]


def _run_in_workers(
    shares: Sequence[Sequence[Cell]], world: World, ga: GAConfig
) -> list[list[TrialRecord]]:
    """The records of each share: the first run here, each other in a forked child.

    Every child is reaped before this returns; on an exception, such as
    ``KeyboardInterrupt`` in the first share, those not yet reaped are killed.
    """
    running: dict[int, BinaryIO] = {}
    try:
        for share in shares[1:]:
            pid, pipe = _fork_worker(share, world, ga)
            running[pid] = pipe
        results = [_run_cells(shares[0], world, ga)]
        for share, (pid, pipe) in zip(shares[1:], list(running.items())):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del running[pid]
            results.append(_worker_records(share, data, status))
        return results
    finally:
        if running:
            import signal

            for pid, pipe in running.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_bench(config: BenchConfig, world: World) -> BenchResult:
    """Run the full trial grid on ``world``; per-cell failures are recorded, not raised.

    The GA cells, then the baseline cells, are dealt round-robin to
    ``max(1, min(usable_cpus(), GA cells))`` shares; one share forks nothing.
    """
    requests: list[ScheduleRequest] = []
    cells: list[Cell] = []
    for trial in range(config.trials):
        request_seed, ga_seed, random_seed = trial_seeds(world.config.seed, trial)
        request = generate_request(
            list(world.exams), world.config, config.acts_per_request, seed=request_seed
        )
        requests.append(request)
        cells += [(algorithm, trial, request, ga_seed, random_seed) for algorithm in config.algorithms]
    ga_cells = [i for i, cell in enumerate(cells) if cell[0] in GA_ALGORITHMS]
    order = ga_cells + [i for i, cell in enumerate(cells) if cell[0] not in GA_ALGORITHMS]
    workers = max(1, min(usable_cpus(), len(ga_cells)))
    dealt = [order[w::workers] for w in range(workers)]
    shares = _run_in_workers([[cells[i] for i in share] for share in dealt], world, config.ga)
    by_cell = {
        i: record for share, results in zip(dealt, shares) for i, record in zip(share, results)
    }
    records = [by_cell[i] for i in range(len(cells))]
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
        for constraint, flag in CONSTRAINT_FLAGS:
            passed = sum(getattr(r.metrics, flag) for r in records)
            rows.append((algorithm, constraint, 100.0 * passed / len(records)))
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
