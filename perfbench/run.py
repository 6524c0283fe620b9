#!/usr/bin/env python3
"""medsched benchmark: one closed-loop workload per run, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` runs a few operations untraced and then
traced, and prints the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` next to this directory and nowhere else: without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock
from spans import AGGREGATE_LAYERS, Tracer, timed_layer_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch space and trace files, inside the checkout

# name, unit, better, bound: the contract BENCHMARK.json repeats.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ref_s", "ref_s", "lower", 0.15),
    ("op_tail_ref_s", "ref_s", "lower", 0.25),
    ("items_per_ref_s", "1/ref_s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("fitness_mean", "ratio", "higher", 0.25),
    ("feasible_pct", "%", "higher", 0.1),
    ("itr_median", "ratio", "lower", 0.1),
    ("trips_mean", "count", "lower", 0.2),
)
OP_NAMES = {
    "solve-default": ("one `medsched solve` request", "requests"),
    "bench-grid": ("one `medsched bench` invocation", "bench cells"),
    "world-churn": ("one generate+save+load world cycle", "baseline bookings"),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """name, unit, better of every per-layer metric a traced run reports."""
    spec = []
    for name in timed_layer_names():
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    return spec + [
        ("ga.evaluate.unique_ratio", "ratio", "higher"),
        ("ga.last_gen_unique_frac", "ratio", "higher"),
        ("ga.filter_search_space.candidates_per_act", "count", "lower"),
        ("worldio.json_bytes", "bytes", "lower"),
        ("bench.aggregate_s", "s", "lower"),
        ("bench.cells", "count", "higher"),
        ("bench.failed", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.covered_frac", "ratio", "higher"),
    ]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_medsched() -> None:
    """Put this checkout's ``src`` first on the path and import the package from it."""
    package = SRC / "medsched"
    if not (package / "__init__.py").is_file():
        fail(f"no medsched package at {package}")
    sys.path.insert(0, str(SRC))
    import medsched.cli  # noqa: F401 - registers every submodule in sys.modules

    if Path(sys.modules["medsched"].__file__).resolve().parent != package.resolve():
        fail(f"medsched was imported from outside {package}")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    returned, labelled 100.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def mean(values: list[float]) -> float:
    """Mean, or 0.0 when nothing was measured."""
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def setup_command(args: argparse.Namespace, work: Path) -> list[str]:
    """A fresh interpreter that imports medsched and writes the set-up files."""
    return [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(work),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]


def timed_subprocess(command: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(command, check=True)
    return time.perf_counter() - start


def timed_run(args: argparse.Namespace, work: Path, size) -> tuple[dict, list, list[tuple]]:
    """End-to-end metrics: (metric values, operations, report lines)."""
    import workloads

    setup = setup_command(args, work)
    setups = [timed_subprocess(setup)]
    op = workloads.WORKLOADS[args.workload](args.seed, work, size)
    ops = []
    refclock.ref_second()  # warm-up: the first kernel run is slower
    clock = [refclock.ref_second()]  # read before the first and after every operation
    quality_ops = size.quality_ops[args.workload]
    start = time.perf_counter()
    while len(ops) < quality_ops or time.perf_counter() - start < args.seconds:
        ops.append(op(len(ops)).check())
        clock.append(refclock.ref_second())
        # Further set-ups are spread over the run, so that one slow stretch
        # of the machine does not decide their median.
        if len(setups) < size.setup_repeats and (
            time.perf_counter() - start >= len(setups) * args.seconds / size.setup_repeats
        ):
            setups.append(timed_subprocess(setup))

    # Wall seconds per reference second around each operation.
    scales = [(before + after) / 2 for before, after in zip(clock, clock[1:])]
    latencies = [o.seconds / scale for o, scale in zip(ops, scales)]
    rates = [o.items * scale / o.item_seconds for o, scale in zip(ops, scales)]
    qualities = [q for o in ops[:quality_ops] for q in o.quality]
    itrs = [q[2] for q in qualities if q[2] is not None]
    tail_value, tail_pct = tail(latencies)
    items = sum(o.items for o in ops)
    what, unit = OP_NAMES[args.workload]
    values = {
        "setup_s": (statistics.median(setups), len(setups), "median of fresh-interpreter set-ups"),
        "op_p50_ref_s": (statistics.median(latencies), len(ops), f"median of {what}"),
        "op_tail_ref_s": (tail_value, len(ops), f"p{tail_pct:.0f} of {what}"),
        "items_per_ref_s": (statistics.median(rates), items, f"{unit} per reference second, median of ops"),
        "peak_rss_mb": (peak_rss_mb(), 1, "ru_maxrss of this process"),
        # Schedules that failed a check have no quality record; such a run
        # reports correct: false, and 0 where no schedule is left.
        "fitness_mean": (mean([q[0] for q in qualities]), len(qualities),
                         f"schedules of the first {quality_ops} ops"),
        "feasible_pct": (100.0 * mean([q[1] for q in qualities]), len(qualities),
                         "fully scheduled, no overlap/incompatibility/travel breach"),
        "itr_median": (statistics.median(itrs) if itrs else 0.0, len(itrs), "idle-time ratio"),
        "trips_mean": (mean([q[3] for q in qualities]), len(qualities), "trips per schedule"),
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    lines = [(name, value, units[name], n, note) for name, (value, n, note) in values.items()]
    lines += [
        ("wall: op p50", statistics.median(o.seconds for o in ops), "s", len(ops), "unscaled"),
        ("wall: reference second", statistics.median(clock), "s", len(clock), "machine speed"),
    ]
    return {name: value for name, (value, _, _) in values.items()}, ops, lines


def traced_run(args: argparse.Namespace, work: Path, size) -> tuple[dict, list, list[tuple]]:
    """Per-layer metrics: (metric values, operations, report lines)."""
    import workloads

    tracer = Tracer()
    with tracer:
        workloads.setup(args.workload, args.seed, work)
    op = workloads.WORKLOADS[args.workload](args.seed, work, size)
    ops = []  # untraced and traced runs of each operation, all checked
    untraced = traced = 0.0
    for i in range(size.trace_ops[args.workload]):
        ops.append(op(i).check())
        untraced += ops[-1].wall
        tracer.current_request = i
        with tracer:
            traced_op = op(i)
        ops.append(traced_op.check())
        traced += traced_op.wall

    layers = tracer.layer_totals()
    values: dict[str, float] = {}
    for name in timed_layer_names():
        calls, total, own = layers.get(name, (0, 0.0, 0.0))
        values.update({f"{name}.calls": calls, f"{name}.total_s": total, f"{name}.self_s": own})
    unique: dict[str, tuple[int, int]] = {}  # algorithm -> (evaluations, distinct genomes)
    for algorithm, calls, seen in tracer.evaluators:
        c, u = unique.get(algorithm, (0, 0))
        unique[algorithm] = (c + calls, u + len(seen))
    evaluations = sum(c for c, _ in unique.values())
    # Top-level spans of the traced operations: the wall time some layer covers.
    durations = [e - s for e, s, r, p in zip(tracer.end, tracer.start, tracer.request, tracer.parent)
                 if r >= 0 and p < 0]
    values.update({
        "ga.evaluate.unique_ratio": sum(u for _, u in unique.values()) / evaluations if evaluations else 0.0,
        "ga.last_gen_unique_frac": mean(tracer.last_gen_unique),
        "ga.filter_search_space.candidates_per_act": mean(tracer.candidates),
        "worldio.json_bytes": mean(tracer.json_bytes),
        "bench.aggregate_s": sum(layers.get(name, (0, 0.0))[1] for name in AGGREGATE_LAYERS),
        "bench.cells": tracer.cells,
        "bench.failed": tracer.cells_failed,
        "trace.overhead_s": traced - untraced,
        "trace.traced_wall_s": traced,
        "trace.covered_frac": sum(durations) / 1e9 / traced,
    })

    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(stem.with_suffix(".csv.gz"))
    summary = {
        "workload": args.workload, "seed": args.seed, "traced_ops": len(ops) // 2,
        "untraced_wall_s": untraced, "spans": len(tracer.start),
        "input": {
            "slots": mean(tracer.slots_scanned),
            "candidates_per_act": values["ga.filter_search_space.candidates_per_act"],
            "json_bytes": values["worldio.json_bytes"],
            "unique_ratio": {a: u / c for a, (c, u) in unique.items()},
        },
        "metrics": values,
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    units = {name: unit for name, unit, _ in per_layer_spec()}
    lines = [(name, value, units[name], len(ops) // 2, "") for name, value in values.items()]
    lines.append(("input", summary["input"], "", len(ops) // 2, "measured input properties"))
    return values, ops, lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small operations, for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_medsched()
    import workloads  # imports medsched, so only once import_medsched() has run

    if args.setup_only:
        workloads.setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    size = workloads.SIZES[args.size]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        run = traced_run if args.trace else timed_run
        values, ops, lines = run(args, work, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    failures = [f for o in ops for f in o.failures]
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"failed_ratio={failed}/{attempted}")
    for name, value, unit, n, note in lines:
        print(f"  {name:44s} {value!s:>22} {unit:7s} n={n:<5d} {note}")
    units = {name: unit for name, _, unit, _, _ in lines}
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
