#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --label "<commit>" --out perfbench/baseline.json

For each workload this makes one timed run (``--trace 0``) per seed and one
traced run (``--trace 1``) on the first seed, then writes, per end-to-end
metric, the ten values with their median, quartiles and spread (quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives them),
plus the traced per-layer metrics and the measured input properties.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for entry in spec["workloads"]:
        workload = entry["name"]
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
        summary = json.loads((ROOT / ".perfbench" / f"trace-{workload}-seed{args.seeds[0]}.json").read_text())
        metrics = {name: spread([r["metrics"][name]["value"] for r in results]) for name in bounds}
        record["workloads"][workload] = {
            "why": entry["why"],
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": metrics,
            "input": summary["input"],
            "traced": {"seed": args.seeds[0], "correct": traced["correct"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for name, m in metrics.items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"{workload:14s} {name:14s} median={m['median']:<12.6g} spread={m['spread']:.4f} "
                  f"bound={bounds[name]}{flag}", flush=True)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
