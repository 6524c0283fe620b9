"""Span tracer that times medsched layers from outside the package.

Modules import names directly (``from .fitness import compute_penalties``),
so a layer is traced by replacing the attribute in every namespace that
calls it: ``medsched.ga.compute_penalties``, ``medsched.fitness.find_overlaps``,
``medsched.cli.load_world`` and so on.  :meth:`Tracer.install` does that and
:meth:`Tracer.uninstall` puts every original back.

Spans live in flat ``array('q')`` columns (name, start, end, parent, request)
so a traced solve of ~140k spans stays a few MB; they are written out once,
when the run ends.
"""

from __future__ import annotations

import csv
import gzip
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

PACKAGE = "medsched"
NAMESPACES = (
    "cli", "bench", "ga", "fitness", "metrics", "baselines", "datagen", "worldio",
)

# Functions timed as layers, by defining module.  ``ga.make_evaluator`` is
# special: its returned closure is what gets timed, as ``ga.evaluate``.
LAYERS = {
    "ga": ("init_population", "next_generation", "decode", "filter_search_space"),
    "fitness": ("compute_penalties",),
    "constraints": (
        "find_overlaps", "check_incompatibilities", "segment_trips", "check_travel_gaps",
    ),
    "baselines": ("fcfs_schedule", "random_schedule"),
    "metrics": ("solution_metrics", "mann_whitney_u"),
    "datagen": ("generate_world",),
    "worldio": ("save_world", "load_world"),
    "bench": (
        "run_algorithm", "write_bench_csvs",
        "convergence_rows", "fulfillment_rows", "value_rows", "stats_rows",
    ),
}
AGGREGATE_LAYERS = (
    "bench.convergence_rows", "bench.fulfillment_rows", "bench.value_rows", "bench.stats_rows",
)
ALGORITHMS = ("ga-ordered", "ga-unordered", "fcfs", "random")


def timed_layer_names() -> list[str]:
    """Every span name a traced run can produce, in report order."""
    names = ["ga.evaluate"]
    for module, functions in LAYERS.items():
        for function in functions:
            if f"{module}.{function}" in AGGREGATE_LAYERS:
                continue
            if function == "run_algorithm":
                names.extend(f"bench.run_algorithm.{algo}" for algo in ALGORITHMS)
            else:
                names.append(f"{module}.{function}")
    return names


class Tracer:
    """Records spans around medsched layer calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack: list[int] = [-1]
        self.current_request = -1
        self._algorithm: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []
        # Counters measured where the work happens.
        self.evaluators: list[list[Any]] = []  # [algorithm, calls, seen genomes]
        self.last_gen_unique: list[float] = []
        self._pending_gen_unique: float | None = None
        self.candidates: list[int] = []  # candidate-slot count of every act filtered
        self.slots_scanned: list[int] = []  # world slot count of every filter call
        self.json_bytes: list[int] = []
        self.cells = 0  # bench.run_algorithm calls
        self.cells_failed = 0  # ... that raised

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _end(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._name_id(name)
        begin, end = self._begin, self._end

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    # -- special layers ---------------------------------------------------

    def _make_evaluator(self, original: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._name_id("ga.evaluate")
        begin, end = self._begin, self._end

        def make_evaluator(*args: Any, **kwargs: Any) -> Callable[..., float]:
            evaluate = original(*args, **kwargs)
            algorithm = self._algorithm[-1] if self._algorithm else "ga"
            stats = [algorithm, 0, set()]
            self.evaluators.append(stats)
            seen = stats[2]

            def traced_evaluate(individual: Any) -> float:
                stats[1] += 1
                seen.add(individual.genes)
                idx = begin(name_id)
                try:
                    return evaluate(individual)
                finally:
                    end(idx)

            return traced_evaluate

        return make_evaluator

    def _wrap(self, module: str, function: str, original: Callable[..., Any]) -> Callable[..., Any]:
        name = f"{module}.{function}"
        if name == "ga.make_evaluator":
            return self._make_evaluator(original)
        if name == "bench.run_algorithm":
            spans = {a: self._span(f"{name}.{a}", original) for a in ALGORITHMS}

            def run_algorithm(algorithm: str, *args: Any, **kwargs: Any) -> Any:
                self._algorithm.append(algorithm)
                self.cells += 1
                try:
                    return spans[algorithm](algorithm, *args, **kwargs)
                except Exception:
                    self.cells_failed += 1
                    raise
                finally:
                    self._algorithm.pop()

            return run_algorithm
        traced = self._span(name, original)
        if name == "ga.filter_search_space":

            def filter_search_space(slots: Any, *args: Any, **kwargs: Any) -> Any:
                space = traced(slots, *args, **kwargs)
                self.slots_scanned.append(len(slots))
                self.candidates.extend(len(block) for block in space.per_act_slots)
                return space

            return filter_search_space
        if name == "ga.init_population":

            def init_population(*args: Any, **kwargs: Any) -> Any:
                self._flush_gen_unique()
                return traced(*args, **kwargs)

            return init_population
        if name == "ga.next_generation":

            def next_generation(population: Any, *args: Any, **kwargs: Any) -> Any:
                unique = len({individual.genes for individual in population})
                self._pending_gen_unique = unique / len(population)
                return traced(population, *args, **kwargs)

            return next_generation
        if name == "worldio.save_world":

            def save_world(world: Any, path: Any) -> None:
                traced(world, path)
                self.json_bytes.append(os.path.getsize(path))

            return save_world
        return traced

    def _flush_gen_unique(self) -> None:
        if self._pending_gen_unique is not None:
            self.last_gen_unique.append(self._pending_gen_unique)
            self._pending_gen_unique = None

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer in every medsched namespace that holds it."""
        targets = {f"{PACKAGE}.{m}.{f}": (m, f) for m, fs in LAYERS.items() for f in fs}
        targets[f"{PACKAGE}.ga.make_evaluator"] = ("ga", "make_evaluator")
        wrapped: dict[int, Callable[..., Any]] = {}
        for short in NAMESPACES:
            namespace = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in list(vars(namespace).items()):
                key = f"{getattr(value, '__module__', '')}.{getattr(value, '__qualname__', '')}"
                if key not in targets or not callable(value):
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(*targets[key], value)
                self._restore.append((namespace, attr, value))
                setattr(namespace, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()
        self._flush_gen_unique()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span duration minus the time its direct children cover (ns)."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, name_id in enumerate(self.name):
            calls[name_id] += 1
            total[name_id] += self.end[i] - self.start[i]
            own[name_id] += selfs[i]
        return {
            name: (calls[k], total[k] / 1e9, own[k] / 1e9)
            for k, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Dump every span as gzip'd CSV: id,name,start_ns,end_ns,parent,request."""
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("id", "name", "start_ns", "end_ns", "parent", "request"))
            names = self.names
            writer.writerows(
                (i, names[k], s, e, p, r)
                for i, (k, s, e, p, r) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.request)
                )
            )
