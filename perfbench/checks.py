"""Correctness checks on what medsched wrote, against reference re-scoring.

The reference functions are bound when this module is imported, before any
tracer wraps them.  They still call the constraint checks through medsched's
module namespaces, so checks run only while no tracer is installed.  Every
check returns a list of failure strings; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Sequence

from medsched.bench import GA_ALGORITHMS, trial_seeds
from medsched.datagen import World, generate_request
from medsched.fitness import compute_penalties, fitness
from medsched.metrics import mann_whitney_u, solution_metrics
from medsched.model import Schedule, ScheduleRequest, TimeSlot
from medsched.worldio import load_request, load_world, request_from_dict

# The five bench tables and the headers tests/test_bench.py pins.
BENCH_HEADERS = {
    "convergence.csv": ["algorithm", "generation", "best_fitness", "mean_fitness"],
    "fulfillment.csv": ["algorithm", "constraint", "percent"],
    "itr.csv": ["algorithm", "trial", "itr"],
    "trips.csv": ["algorithm", "trial", "trips"],
    "stats.csv": ["metric", "algo_a", "algo_b", "u", "p"],
}
SLOT_FIELDS = ("id", "exam", "facility", "room", "practitioner", "start", "duration_minutes")

# (fitness, feasible, itr, trips) of one schedule, as re-scored here.
Quality = tuple[float, bool, "float | None", int]


def slot_index(world: World) -> dict[str, TimeSlot]:
    return {slot.id: slot for slot in world.slots}


def check_assignments(
    assignments: Iterable[tuple[int, TimeSlot]],
    slots: dict[str, TimeSlot],
    request: ScheduleRequest,
) -> list[str]:
    """Every assigned slot exists in the world, fits its act and the request filters."""
    failures = []
    seen_acts: set[int] = set()
    for act, slot in assignments:
        if not 0 <= act < len(request.acts) or act in seen_acts:
            failures.append(f"act index {act} invalid or repeated")
            continue
        seen_acts.add(act)
        if slots.get(slot.id) != slot:
            failures.append(f"slot {slot.id} is not the world's slot of that id")
        elif slot.exam != request.acts[act]:
            failures.append(f"slot {slot.id} is exam {slot.exam}, act {act} wants {request.acts[act]}")
        elif (
            slot.day < request.start_day
            or (request.preferred_facilities is not None and slot.facility not in request.preferred_facilities)
            or (request.preferred_practitioners is not None and slot.practitioner not in request.preferred_practitioners)
        ):
            failures.append(f"slot {slot.id} violates the request filters")
    return failures


def rescore(schedule: Schedule, request: ScheduleRequest, world: World) -> tuple[Any, float, Any]:
    """Reference penalties, fitness and metrics of one schedule."""
    penalties = compute_penalties(schedule, request, world.rules)
    metrics = solution_metrics(schedule, world.rules, len(request.acts))
    return penalties, fitness(penalties), metrics


def quality(score: float, metrics: Any) -> Quality:
    feasible = (
        metrics.fully_scheduled and metrics.overlap_ok
        and metrics.compatibility_ok and metrics.travel_ok
    )
    return (score, feasible, metrics.itr, metrics.trips)


def check_solution(
    out_dir: Path,
    world: World,
    slots: dict[str, TimeSlot],
    expected_request: ScheduleRequest,
) -> tuple[list[str], Quality | None]:
    """Re-score ``solution.json`` from a ``medsched solve`` run and compare."""
    try:
        document = json.loads((out_dir / "solution.json").read_text(encoding="utf-8"))
        request = request_from_dict(document["request"])
        assignments = [
            (entry["act"], TimeSlot(**{name: entry["slot"][name] for name in SLOT_FIELDS}))
            for entry in document["assignments"]
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"solution.json unreadable: {exc!r}"], None
    failures = []
    if request != expected_request or load_request(out_dir / "request.json") != expected_request:
        failures.append("solved request differs from the one asked for")
    failures += check_assignments(assignments, slots, request)
    if failures:
        return failures, None
    schedule = Schedule(assignments=tuple(sorted(assignments, key=lambda a: a[0])))
    penalties, score, metrics = rescore(schedule, request, world)
    if document["penalties"] != {**asdict(penalties), "total": penalties.total()}:
        failures.append(f"penalties {document['penalties']} != re-scored {penalties}")
    if document["fitness"] != score:
        failures.append(f"fitness {document['fitness']} != re-scored {score}")
    if document["metrics"] != asdict(metrics):
        failures.append(f"metrics {document['metrics']} != re-scored {metrics}")
    return failures, None if failures else quality(score, metrics)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _cell(value: Any) -> str:
    # write_csv's formatting: csv.writer calls str() on each value.
    return "" if value is None else str(value)


def check_bench(
    out_dir: Path, result: Any, trials: int, acts: int
) -> tuple[list[str], int, list[Quality]]:
    """Check one ``medsched bench`` run.

    Returns (failures, failed cell count, quality of every GA cell).  A
    failure of the files as a whole marks every cell failed.
    """
    world = result.world
    algorithms = list(result.config.algorithms)
    failures: list[str] = []
    tables = {}
    for name, header in BENCH_HEADERS.items():
        rows = _read_csv(out_dir / name)
        tables[name] = rows[1:]
        if not rows or rows[0] != header:
            failures.append(f"{name} header {rows[:1]} != {header}")
    if load_world(out_dir / "world.json") != world:
        failures.append("world.json does not load back to the benched world")
    if len(result.records) != trials * len(algorithms):
        failures.append(f"{len(result.records)} cells for {trials} trials x {len(algorithms)}")
    for trial, request in enumerate(result.requests):
        request_seed = trial_seeds(world.config.seed, trial)[0]
        if request != generate_request(list(world.exams), world.config, acts, seed=request_seed):
            failures.append(f"trial {trial} request differs from its seeded draw")

    slots = slot_index(world)
    by_exam = slots_by_exam(world)
    failed_cells = 0
    qualities: list[Quality] = []
    rescored: dict[tuple[str, int], Any] = {}
    for record in result.records:
        request = result.requests[record.trial]
        cell = f"trial {record.trial} {record.algorithm}"
        if record.error is not None:
            failures.append(f"{cell}: {record.error}")
            failed_cells += 1
            continue
        cell_failures = check_assignments(record.schedule.assignments, slots, request)
        if not cell_failures:
            if record.algorithm == "fcfs":
                cell_failures += check_fcfs(record.schedule, by_exam, request)
            penalties, score, metrics = rescore(record.schedule, request, world)
            if (penalties, score, metrics) != (record.penalties, record.fitness, record.metrics):
                cell_failures.append(f"{cell}: recorded score differs from re-score")
            if record.history is not None and score != max(h.best_fitness for h in record.history):
                cell_failures.append(f"{cell}: result is not the best schedule of its history")
            rescored[record.algorithm, record.trial] = metrics
            if record.algorithm in GA_ALGORITHMS:
                qualities.append(quality(score, metrics))
        if cell_failures:
            failures += cell_failures
            failed_cells += 1

    for metric, table in (("itr", "itr.csv"), ("trips", "trips.csv")):
        expected = [
            [algorithm, str(trial), _cell(getattr(metrics, metric))]
            for (algorithm, trial), metrics in rescored.items()
        ]
        if sorted(tables[table]) != sorted(expected):
            failures.append(f"{table} rows differ from the re-scored cells")
    failures += _check_fulfillment(tables["fulfillment.csv"], rescored, algorithms)
    failures += _check_stats(tables["stats.csv"], rescored, algorithms)
    if failures and failed_cells == 0:
        failed_cells = len(result.records)
    return failures, failed_cells, qualities


def _check_fulfillment(rows: Sequence[list[str]], rescored: dict, algorithms: list[str]) -> list[str]:
    flags = {"overlap": "overlap_ok", "incompatibility": "compatibility_ok", "travel_gap": "travel_ok"}
    expected = []
    for algorithm in algorithms:
        cells = [m for (a, _), m in rescored.items() if a == algorithm]
        if not cells:
            continue
        for constraint, attr in flags.items():
            percent = 100.0 * sum(getattr(m, attr) for m in cells) / len(cells)
            expected.append([algorithm, constraint, _cell(percent)])
    return [] if list(rows) == expected else ["fulfillment.csv differs from the re-scored cells"]


def _check_stats(rows: Sequence[list[str]], rescored: dict, algorithms: list[str]) -> list[str]:
    expected = []
    for metric in ("itr", "trips"):
        samples = {
            algorithm: [
                getattr(m, metric)
                for (a, _), m in sorted(rescored.items(), key=lambda kv: kv[0][1])
                if a == algorithm and getattr(m, metric) is not None
            ]
            for algorithm in algorithms
        }
        for i, algo_a in enumerate(algorithms):
            for algo_b in algorithms[i + 1:]:
                a, b = samples[algo_a], samples[algo_b]
                u, p = mann_whitney_u(a, b) if a and b else (None, None)
                expected.append([metric, algo_a, algo_b, _cell(u), _cell(p)])
    return [] if list(rows) == expected else ["stats.csv differs from reference Mann-Whitney U"]


def check_roundtrip(world: World, loaded: World) -> list[str]:
    """``load_world(save_world(w)) == w``."""
    return [] if loaded == world else [f"world seed {world.config.seed} changed in a save/load round trip"]


def check_fcfs(schedule: Schedule, world_by_exam: dict[str, list[TimeSlot]], request: ScheduleRequest) -> list[str]:
    """FCFS oracle: each act in request order takes its earliest unclaimed candidate."""
    taken: set[str] = set()
    expected = []
    for act, exam in enumerate(request.acts):
        for slot in world_by_exam.get(exam, ()):
            if slot.day >= request.start_day and slot.id not in taken:
                taken.add(slot.id)
                expected.append((act, slot))
                break
    if tuple(expected) != schedule.assignments:
        return ["fcfs schedule is not the earliest-unclaimed booking"]
    return []


def slots_by_exam(world: World) -> dict[str, list[TimeSlot]]:
    """Each exam's slots sorted by (start, id), as FCFS walks them."""
    by_exam: dict[str, list[TimeSlot]] = {}
    for slot in world.slots:
        by_exam.setdefault(slot.exam, []).append(slot)
    for block in by_exam.values():
        block.sort(key=lambda slot: (slot.start, slot.id))
    return by_exam
