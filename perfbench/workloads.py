"""The three benchmark workloads: set-up plus one closed-loop operation each.

Every input is drawn from the benchmark seed; medsched only ever sees the
generated world files and requests.  Each operation returns an :class:`Op`
with its latency, the work items it completed, the quality of the schedules
it produced and any correctness failures.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from medsched.datagen import WorldConfig, generate_request, generate_world
from medsched.ga import GAConfig
from medsched.worldio import load_world

BASELINES = ("fcfs", "random")


@dataclass(frozen=True)
class Size:
    """Per-workload scale; ``FULL`` is what the benchmark measures."""

    ga_flags: tuple[str, ...]  # extra `solve`/`bench` flags; () means CLI defaults
    bench_trials: int
    churn_horizon_days: int
    churn_requests: int  # requests booked per churn cycle, each by both baselines
    quality_ops: dict[str, int]  # ops whose schedules make up the quality metrics
    trace_ops: dict[str, int]  # ops run untraced and traced in a --trace 1 run
    setup_repeats: int


FULL = Size(
    ga_flags=(),
    bench_trials=1,
    churn_horizon_days=120,
    churn_requests=30,
    quality_ops={"solve-default": 40, "bench-grid": 22, "world-churn": 30},
    trace_ops={"solve-default": 2, "bench-grid": 1, "world-churn": 3},
    setup_repeats=9,
)
TINY = Size(
    ga_flags=("--generations", "4", "--population", "6", "--tournament-k", "2"),
    bench_trials=2,
    churn_horizon_days=6,
    churn_requests=2,
    quality_ops={"solve-default": 2, "bench-grid": 1, "world-churn": 1},
    trace_ops={"solve-default": 1, "bench-grid": 1, "world-churn": 1},
    setup_repeats=1,
)
SIZES = {"full": FULL, "tiny": TINY}
ACTS = 5


@dataclass
class Op:
    """One timed operation; :meth:`check` then fills in its verdict."""

    seconds: float  # the operation's latency
    items: int  # work items completed: requests, bench cells or bookings
    item_seconds: float  # time those items took
    wall: float  # everything the operation timed
    attempted: int
    # Checks re-score through medsched's constraint functions, so they run
    # apart from the operation, where no tracer is installed.  The closure
    # holds the operation's outputs (worlds, bench results) until it has run.
    verify: Callable[[], tuple[int, list[checks.Quality], list[str]]] | None
    failed: int = 0
    quality: list[checks.Quality] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self) -> "Op":
        self.failed, self.quality, self.failures = self.verify()
        self.verify = None
        return self


def derive(seed: int, label: str, *index: int) -> int:
    """A seed for one input, a pure function of the benchmark seed."""
    return random.Random("/".join(map(str, (seed, label, *index)))).randrange(2**31)


def _cli_main(argv: list[str]) -> tuple[int, float]:
    """Run `medsched <argv>` in-process with its stdout discarded; (exit code, seconds)."""
    main = sys.modules["medsched.cli"].main
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - start


def setup(workload: str, seed: int, work: Path) -> None:
    """What a workload needs on disk before its loop: the solve world file."""
    if workload == "solve-default":
        world = sys.modules["medsched.datagen"].generate_world(WorldConfig())
        sys.modules["medsched.worldio"].save_world(world, work / "world.json")


# The solve world is WorldConfig's default (the paper's setting); the seed
# draws the requests.  A per-seed world would add a world-to-world spread to
# the quality metrics that no number of requests averages away.
def solve_default(seed: int, work: Path, size: Size) -> Callable[[int], Op]:
    world_path = work / "world.json"
    world = load_world(world_path)
    setup_failures = checks.check_roundtrip(generate_world(WorldConfig()), world)
    slots = checks.slot_index(world)
    out = work / "solve"

    def op(i: int) -> Op:
        request_seed = derive(seed, "solve", i)
        argv = ["solve", "--world", str(world_path), "--seed", str(request_seed), "--out", str(out)]
        code, seconds = _cli_main(argv + list(size.ga_flags))

        def verify():
            failures = list(setup_failures) if i == 0 else []
            quality = None
            if code != 0:
                failures.append(f"solve exited {code}")
            else:
                expected = generate_request(list(world.exams), world.config, ACTS, seed=request_seed)
                solve_failures, quality = checks.check_solution(out, world, slots, expected)
                failures += solve_failures
            return int(bool(failures)), [quality] if quality else [], failures

        return Op(seconds, 1, seconds, seconds, 1, verify)

    return op


# Each invocation generates its own world from its seed (the CLI default when
# --world is absent): with one fixed world file every invocation would run
# the same trials, because bench draws its requests from the world's seed.
def bench_grid(seed: int, work: Path, size: Size) -> Callable[[int], Op]:
    cli = sys.modules["medsched.cli"]
    out = work / "bench"

    def op(i: int) -> Op:
        captured = []
        run_bench = cli.run_bench

        def capture(config, world=None):
            captured.append(run_bench(config, world))
            return captured[-1]

        cli.run_bench = capture
        try:
            argv = ["bench", "--seed", str(derive(seed, "bench", i)),
                    "--trials", str(size.bench_trials), "--out", str(out)]
            code, seconds = _cli_main(argv + list(size.ga_flags))
        finally:
            cli.run_bench = run_bench
        cells = size.bench_trials * len(cli.ALL_ALGORITHMS)

        def verify():
            if code != 0 or not captured:
                return cells, [], [f"bench exited {code}"]
            failures, failed, qualities = checks.check_bench(out, captured[0], size.bench_trials, ACTS)
            return failed, qualities, failures

        items = len(captured[0].records) if captured else 0
        return Op(seconds, items, seconds, seconds, cells, verify)

    return op


# One cycle writes and reads a long-horizon world, then books a batch of
# requests on it with both baselines: no GA runs here.
def world_churn(seed: int, work: Path, size: Size) -> Callable[[int], Op]:
    datagen = sys.modules["medsched.datagen"]
    worldio = sys.modules["medsched.worldio"]
    fitness = sys.modules["medsched.fitness"]
    metrics = sys.modules["medsched.metrics"]
    bench = sys.modules["medsched.bench"]
    path = work / "churn-world.json"
    ga = GAConfig()

    def op(i: int) -> Op:
        config = WorldConfig(seed=derive(seed, "world", i), horizon_days=size.churn_horizon_days)
        start = time.perf_counter()
        world = datagen.generate_world(config)
        worldio.save_world(world, path)
        loaded = worldio.load_world(path)
        cycle = time.perf_counter() - start

        requests = [
            generate_request(list(loaded.exams), loaded.config, ACTS, seed=derive(seed, "churn", i, j))
            for j in range(size.churn_requests)
        ]
        bookings = [
            (algorithm, request, derive(seed, "random", i, j))
            for j, request in enumerate(requests)
            for algorithm in BASELINES
        ]
        results = []
        start = time.perf_counter()
        for algorithm, request, random_seed in bookings:
            schedule, _ = bench.run_algorithm(algorithm, loaded, request, ga, 0, random_seed)
            penalties = fitness.compute_penalties(schedule, request, loaded.rules)
            results.append((schedule, fitness.fitness(penalties),
                            metrics.solution_metrics(schedule, loaded.rules, len(request.acts))))
        booking = time.perf_counter() - start

        def verify():
            failures = checks.check_roundtrip(world, loaded)
            failed = int(bool(failures))
            slots = checks.slot_index(loaded)
            by_exam = checks.slots_by_exam(loaded)
            qualities = []
            for (algorithm, request, _), (schedule, score, solution) in zip(bookings, results):
                booking_failures = checks.check_assignments(schedule.assignments, slots, request)
                if algorithm == "fcfs" and not booking_failures:
                    booking_failures = checks.check_fcfs(schedule, by_exam, request)
                if checks.rescore(schedule, request, loaded)[1:] != (score, solution):
                    booking_failures.append(f"{algorithm} booking {request.acts}: score differs from re-score")
                failures += booking_failures
                failed += bool(booking_failures)
                qualities.append(checks.quality(score, solution))
            return failed, qualities, failures

        return Op(cycle, len(bookings), booking, cycle + booking, 1 + len(bookings), verify)

    return op


WORKLOADS = {
    "solve-default": solve_default,
    "bench-grid": bench_grid,
    "world-churn": world_churn,
}
