"""Benchmark entry point: one checked run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/skeinforge``.  Every
process this starts is a fresh interpreter with ``src`` on ``PYTHONPATH``,
``PYTHONHASHSEED=0`` and ``SKEINFORGE_JOBS`` unset, and is waited for.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median, over SETUP_RUNS fresh interpreters started
half before and half after the client, of the time from before ``import
skeinforge`` to the answer of ``homfly "1:"``, scaled to reference speed
by the calibration kernel's times around each start (``cpu.py``); the
other metrics come from one fresh client process (``client.py``).  With ``--trace 1`` it reports the per-layer metrics of a
traced replay.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it starts with ``info`` and
holds what the metrics need beside them (the tail's percentile and its
sample count, or the per-layer self-time shares).  Exits 1 when an answer
was wrong and 2 when there is nothing to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpu import at_reference, kernel_seconds, pin_fastest, unpin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 12
# Whole-run limit in seconds; the contract allows 180.
TIME_LIMIT = 170

SETUP_CODE = """
import contextlib, io, json, time
start = time.perf_counter()
from skeinforge.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["homfly", "1:"])
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "ok": code == 0 and out.getvalue() == "1\\n"}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SKEINFORGE_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def probe_setup(env: dict) -> tuple[float, bool]:
    """One fresh interpreter's set-up time at reference speed, on the fastest CPU, and whether it answered right."""
    before = [pin_fastest(), kernel_seconds()]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        after = kernel_seconds()
    finally:
        unpin()
    probe = last_json(proc.stdout)
    return at_reference(probe["setup_s"], [*before, after]), probe["ok"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    corpus_path = BENCH / "corpus" / f"{args.workload}.json"
    for needed in (ROOT / "src" / "skeinforge" / "__init__.py", spec_path, corpus_path):
        if not needed.is_file():
            print(f"error: {needed} is missing; run inside a full checkout", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    began = time.monotonic()
    env = child_env()
    probes: list[tuple[float, bool]] = []
    try:
        if not args.trace:
            probe_setup(env)  # The first start compiles bytecode; it is not counted.
            probes += [probe_setup(env) for _ in range(SETUP_RUNS // 2)]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "client.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(TIME_LIMIT - (time.monotonic() - began), 1), check=True,
        )
        if not args.trace:
            probes += [probe_setup(env) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1]} ran past the time limit", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: child process failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    result = last_json(proc.stdout)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(t for t, _ in probes)
    setup_ok = all(ok for _, ok in probes)
    correct = result["failed"] == 0 and setup_ok
    if result["failures"] or not setup_ok:
        print(f"wrong answers: {result['failures']}, setup ok: {setup_ok}", file=sys.stderr)
    print("info " + json.dumps({"workload": args.workload, "seed": args.seed, **result["info"]}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
