"""Tests of the benchmark itself: its answer check and its pinned corpus.

    python3 -m pytest bench/test_bench.py

Regenerating the pools runs every pinned request through the CLI again,
which takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from corpus import ROOT, WORKLOADS, build, load, passes


def _checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    """A copy of what the benchmark needs, without git or build output."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(checkout: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_regenerated_corpus_is_identical(workload):
    pinned = load(workload)
    pinned.pop("generated_at")
    assert build(workload, pinned["seed"]) == pinned


def test_same_seed_same_requests():
    corpus = load("singular_generic")
    first = list(islice(passes(corpus, 7), 3))
    assert first == list(islice(passes(corpus, 7), 3))
    assert first != list(islice(passes(corpus, 8), 3))


@pytest.mark.parametrize(
    "field, value, trace",
    [("sha256", "0" * 64, 0), ("sha256", "0" * 64, 1), ("exit", 0, 0)],
    ids=["answer", "traced-answer", "refusal-exit-code"],
)
def test_wrong_expected_answer_fails_the_run(tmp_path, field, value, trace):
    checkout = _checkout(tmp_path)
    path = checkout / "bench" / "corpus" / "classical_cold.json"
    corpus = json.loads(path.read_text())
    kind = "pinned" if field == "sha256" else "refusal"
    victim = next(r for r in corpus["requests"] if r["kind"] == kind)
    victim[field] = value
    path.write_text(json.dumps(corpus))

    proc = _run(checkout, "classical_cold", trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_pinned_corpus_passes(tmp_path):
    proc = _run(_checkout(tmp_path), "classical_cold", 0)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    proc = _run(_checkout(tmp_path, with_sources=False), "classical_cold", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

