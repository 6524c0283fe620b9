"""Command-line harness: world generation, single solves, batch benchmarks.

Exit codes: 0 success, 1 usage error (bad flags or config values), 2 runtime
failure (a request naming exams the world lacks, unreadable or malformed
files, an unschedulable request: any act without a candidate slot after
filtering, or an exam with fewer candidate slots than acts, named with the
filters set, or a bench cell that failed).  The
``MEDSCHED_SEED`` environment variable supplies the default seed wherever
``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from .bench import (
    ALL_ALGORITHMS,
    STATS_HEADER,
    BenchConfig,
    pairwise_stats,
    run_bench,
    solve_cell,
    write_bench_csvs,
)
from .datagen import WorldConfig, generate_request, generate_world
from .ga import GA_ORDERED, GAConfig, UnschedulableError
from .worldio import (
    RequestError,
    WorldFormatError,
    load_request,
    load_world,
    save_request,
    save_solution,
    save_world,
    solution_to_dict,
    write_csv,
)

def _env_seed() -> int:
    raw = os.environ.get("MEDSCHED_SEED", "42")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MEDSCHED_SEED must be an integer, got {raw!r}") from None


def _seed(args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else _env_seed()


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``solve`` and ``bench`` share, defaulting to the configs' own."""
    parser.add_argument(
        "--acts", type=int, default=BenchConfig.acts_per_request, help="acts per request"
    )
    parser.add_argument("--generations", type=int, default=GAConfig.generations)
    parser.add_argument("--population", type=int, default=GAConfig.population)
    parser.add_argument("--tournament-k", type=int, default=GAConfig.tournament_k)
    parser.add_argument("--mutation-rate", type=float, default=GAConfig.mutation_rate)


def _add_request_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start-day", type=int, default=None)
    parser.add_argument(
        "--prefer-facility", action="append", default=None, metavar="ID"
    )
    parser.add_argument(
        "--prefer-practitioner", action="append", default=None, metavar="ID"
    )


def _ga_config(args: argparse.Namespace) -> GAConfig:
    return GAConfig(
        population=args.population,
        generations=args.generations,
        tournament_k=args.tournament_k,
        mutation_rate=args.mutation_rate,
    )


def _load_or_generate_world(args: argparse.Namespace, seed: int):
    if args.world is not None:
        return load_world(Path(args.world))
    return generate_world(WorldConfig(seed=seed))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medsched",
        description="Multi-appointment scheduling: world generator, solvers, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_world = sub.add_parser("gen-world", help="generate a synthetic world file")
    p_world.add_argument("--seed", type=int, default=None)
    p_world.add_argument("--out", default=".", help="output directory")
    p_world.add_argument("--rule-count", type=int, default=WorldConfig.rule_count)
    p_world.add_argument("--horizon-days", type=int, default=WorldConfig.horizon_days)
    p_world.set_defaults(func=cmd_gen_world)

    p_solve = sub.add_parser("solve", help="run one algorithm on one request")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--out", default=".", help="output directory")
    p_solve.add_argument("--world", default=None, help="world.json path")
    p_solve.add_argument("--request", default=None, help="request.json path")
    p_solve.add_argument("--algo", choices=ALL_ALGORITHMS, default=GA_ORDERED)
    _add_request_flags(p_solve)
    _add_run_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run the batch benchmark")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", default=".", help="output directory")
    p_bench.add_argument("--world", default=None, help="world.json path")
    p_bench.add_argument("--trials", type=int, default=BenchConfig.trials)
    p_bench.add_argument(
        "--algo",
        action="append",
        choices=ALL_ALGORITHMS,
        default=None,
        help="repeatable; default: all algorithms",
    )
    _add_run_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_stats = sub.add_parser(
        "stats", help="pairwise rank-sum comparisons from per-trial value CSVs"
    )
    p_stats.add_argument("files", nargs="+", help="per-trial CSVs (algorithm,trial,value)")
    p_stats.add_argument("--out", default=None, help="write stats.csv into this directory")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def cmd_gen_world(args: argparse.Namespace) -> int:
    config = WorldConfig(
        seed=_seed(args), rule_count=args.rule_count, horizon_days=args.horizon_days
    )
    world = generate_world(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "world.json"
    save_world(world, path)
    print(
        f"wrote {path} ({len(world.exams)} exams, {len(world.rules)} rules, "
        f"{len(world.slots)} slots)"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    # An earlier run's outputs go first, so a failure leaves none; an input file stays.
    out_dir = Path(args.out)
    inputs = {Path(path).resolve() for path in (args.world, args.request) if path is not None}
    for name in ("request.json", "solution.json", "convergence.csv"):
        if (out_dir / name).resolve() not in inputs:
            (out_dir / name).unlink(missing_ok=True)
    seed = _seed(args)
    world = _load_or_generate_world(args, seed)
    if args.request is not None:
        request = load_request(Path(args.request))
        catalogue = {exam.id for exam in world.exams}
        unknown = [act for act in dict.fromkeys(request.acts) if act not in catalogue]
        if unknown:
            raise RequestError(
                f"request names exams outside the world's catalogue: {', '.join(unknown)}"
            )
    else:
        request = generate_request(list(world.exams), world.config, args.acts, seed=seed)
    if args.start_day is not None:
        request = replace(request, start_day=args.start_day)
    if args.prefer_facility is not None:
        request = replace(request, preferred_facilities=frozenset(args.prefer_facility))
    if args.prefer_practitioner is not None:
        request = replace(
            request, preferred_practitioners=frozenset(args.prefer_practitioner)
        )

    record = solve_cell(args.algo, world, request, _ga_config(args), seed, seed, trial=0)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_request(request, out_dir / "request.json")
    document = solution_to_dict(
        args.algo, request, record.schedule, record.penalties, record.fitness, record.metrics
    )
    save_solution(document, out_dir / "solution.json")
    written = ["request.json", "solution.json"]
    if record.history is not None:
        write_csv(
            out_dir / "convergence.csv",
            ("generation", "best_fitness", "mean_fitness"),
            [(g, s.best_fitness, s.mean_fitness) for g, s in enumerate(record.history)],
        )
        written.append("convergence.csv")
    print(
        f"{args.algo}: fitness {record.fitness:.6f}, {len(record.schedule)} acts scheduled, "
        f"penalties {record.penalties.total():.1f} -> "
        + ", ".join(str(out_dir / name) for name in written)
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    seed = _seed(args)
    world = _load_or_generate_world(args, seed)
    algorithms = tuple(args.algo) if args.algo else ALL_ALGORITHMS
    config = BenchConfig(
        trials=args.trials,
        acts_per_request=args.acts,
        algorithms=algorithms,
        ga=_ga_config(args),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the grid, so a bad --out costs no run
    result = run_bench(config, world)
    save_world(world, out_dir / "world.json")
    paths = write_bench_csvs(result, out_dir)
    failures = [r for r in result.records if r.error is not None]
    for record in failures:
        print(
            f"trial {record.trial} {record.algorithm}: {record.error}",
            file=sys.stderr,
        )
    print(
        f"{config.trials} trials x {len(algorithms)} algorithms "
        f"({len(failures)} failed) -> "
        + ", ".join(str(p) for p in [out_dir / 'world.json', *paths])
    )
    return 2 if failures else 0


class ValueCsvError(ValueError):
    """A per-trial CSV that ``stats`` cannot read, named by file and line."""


def _read_value_csv(path: Path) -> tuple[str, dict[str, list[float]]]:
    data = path.read_bytes()
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        header = next(reader, [])
        if len(header) < 3:
            raise ValueError("expected header algorithm,trial,<metric>")
        samples: dict[str, list[float]] = {}
        for row in reader:
            if 0 < len(row) < 3:
                raise ValueError(f"expected algorithm,trial,{header[2]}, got {row!r}")
            if row and row[2]:  # a blank line, or a blank (undefined) value, is skipped
                value = float(row[2])
                if not math.isfinite(value):
                    raise ValueError(f"not a finite number: {row[2]!r}")
                samples.setdefault(row[0], []).append(value)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueCsvError(f"malformed CSV file {path}, line {line}: not UTF-8") from None
    except (ValueError, csv.Error) as exc:
        line = reader.line_num or 1  # 0 for an empty file
        raise ValueCsvError(f"malformed CSV file {path}, line {line}: {exc}") from None
    return header[2], samples


def cmd_stats(args: argparse.Namespace) -> int:
    rows: list[tuple[Any, ...]] = []
    for name in args.files:
        rows.extend(pairwise_stats(*_read_value_csv(Path(name))))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "stats.csv"
        write_csv(path, STATS_HEADER, rows)
        print(f"wrote {path}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(STATS_HEADER)
        writer.writerows(rows)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UnschedulableError as exc:
        print(f"error: unschedulable: {exc}", file=sys.stderr)
        return 2
    # Before ``ValueError``: the three file errors subclass it.
    except (WorldFormatError, RequestError, ValueCsvError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
