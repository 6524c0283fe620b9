"""Smoke test of the benchmark at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from medsched.cli import main as medsched_main  # noqa: E402
from medsched.datagen import WorldConfig, generate_request, generate_world  # noqa: E402
from medsched.worldio import save_world  # noqa: E402

WORKLOADS = sorted(run.OP_NAMES)

# The per-layer names the benchmark promises, spelled out rather than derived.
LAYER_NAMES = [
    "ga.evaluate", "fitness.compute_penalties",
    "constraints.find_overlaps", "constraints.check_incompatibilities",
    "constraints.segment_trips", "constraints.check_travel_gaps",
    "ga.init_population", "ga.next_generation", "ga.decode", "ga.filter_search_space",
    "baselines.fcfs_schedule", "baselines.random_schedule", "metrics.solution_metrics",
    "datagen.generate_world", "worldio.save_world", "worldio.load_world",
    "bench.run_algorithm.ga-ordered", "bench.run_algorithm.ga-unordered",
    "bench.run_algorithm.fcfs", "bench.run_algorithm.random",
    "bench.write_bench_csvs", "metrics.mann_whitney_u",
]
PER_LAYER_NAMES = [f"{layer}.{part}" for layer in LAYER_NAMES for part in ("calls", "total_s", "self_s")] + [
    "ga.evaluate.unique_ratio", "ga.last_gen_unique_frac",
    "ga.filter_search_space.candidates_per_act", "worldio.json_bytes",
    "bench.aggregate_s", "bench.cells", "bench.failed", "trace.overhead_s",
]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_unit_and_n(workload):
    done = run_benchmark(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit, _, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)
        assert any(line.split()[:1] == [name] and " n=" in line for line in lines[:-1]), name
    assert set(result["metrics"]) == {name for name, _, _, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    done = run_benchmark(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(PER_LAYER_NAMES) <= set(result["metrics"])
    assert set(result["metrics"]) == {name for name, _, _ in run.per_layer_spec()}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("solve-default", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A tiny `medsched solve` run: (output dir, world, expected request)."""
    work = tmp_path_factory.mktemp("solve")
    world = generate_world(WorldConfig(seed=3, horizon_days=4))
    save_world(world, work / "world.json")
    out = work / "out"
    argv = ["solve", "--world", str(work / "world.json"), "--seed", "11", "--out", str(out),
            "--generations", "3", "--population", "4", "--tournament-k", "2"]
    assert medsched_main(argv) == 0
    return out, world, generate_request(list(world.exams), world.config, 5, seed=11)


def _tampered(solved, tmp_path, edit):
    out, world, request = solved
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    document = json.loads((copy / "solution.json").read_text())
    edit(document, world)
    (copy / "solution.json").write_text(json.dumps(document))
    return checks.check_solution(copy, world, checks.slot_index(world), request)


def test_untampered_solution_passes(solved, tmp_path):
    failures, quality = _tampered(solved, tmp_path, lambda document, world: None)
    assert failures == [] and quality is not None


def _other_exam_slot(document, world):
    slot = document["assignments"][0]["slot"]
    other = next(s for s in world.slots if s.exam != slot["exam"])
    document["assignments"][0]["slot"] = {**slot, "id": other.id, "exam": other.exam,
                                          "start": other.start, "room": other.room,
                                          "facility": other.facility,
                                          "practitioner": other.practitioner,
                                          "duration_minutes": other.duration_minutes}


@pytest.mark.parametrize("edit", [
    lambda document, world: document.update(fitness=document["fitness"] * 1.5),
    lambda document, world: document["penalties"].update(trips=document["penalties"]["trips"] + 100),
    lambda document, world: document["metrics"].update(overlap_ok=not document["metrics"]["overlap_ok"]),
    lambda document, world: document["assignments"][0]["slot"].update(id="no-such-slot"),
    lambda document, world: document["assignments"][0]["slot"].update(start=document["assignments"][0]["slot"]["start"] + 15),
    _other_exam_slot,
    lambda document, world: document["request"].update(acts=document["request"]["acts"][::-1]),
], ids=["fitness", "penalty", "metric", "unknown-slot", "moved-slot", "wrong-exam", "request"])
def test_tampered_solution_fails(solved, tmp_path, edit):
    failures, quality = _tampered(solved, tmp_path, edit)
    assert failures and quality is None
