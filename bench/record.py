"""Run record: every workload over several seeds, summarised into one file.

    python3 bench/record.py --seeds 1-10 --out bench/BENCH_1.json

For each workload this makes one ``run.py`` run per seed with tracing off
and traced runs at the first TRACED_SEEDS seeds, one after another.  Every
metric is summarised by its median, first and third quartile
(``statistics.quantiles`` with n=4) and sample count, and every end-to-end
metric also by its spread, (q3 - q1) / median, which is printed beside its
bound.  The record
also holds the core count, the Python version, the commit and the seeds.
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

from corpus import ROOT, git_commit

TRACED_SEEDS = 3


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2].removeprefix("info ")), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="where to write the record")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"end_to_end": {}, "runs": []}
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            stats = summary(values)
            stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
            entry["end_to_end"][name] = stats
            print(f"{workload:24} {name:16} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:6.3f} bound {bound}", flush=True)
        entry["failed_frac"] = sum(r["failed"] for _, r in runs) / sum(r["attempted"] for _, r in runs)
        entry["runs"] = [
            {"seed": seed, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
             "latency_samples": info["latency_samples"], "tail_percentile": info["tail_percentile"],
             "metrics": {name: m["value"] for name, m in r["metrics"].items()}}
            for seed, (info, r) in zip(seeds, runs)
        ]
        traced = [one_run(workload, seed, seconds, 1) for seed in seeds[:TRACED_SEEDS]]
        entry["per_layer"] = {
            m["name"]: summary([r["metrics"][m["name"]]["value"] for _, r in traced]) for m in spec["per_layer"]
        }
        entry["traces"] = [info for info, _ in traced]
        print(f"{workload:24} largest self time: {[info['largest_self'] for info, _ in traced]}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
