"""Pinned request pools for the benchmark, and the generator that makes them.

Each workload has a pool in ``bench/corpus/<workload>.json``: seeded draws,
a few pinned words, and inputs the CLI must refuse.  Every request carries
its expected exit code and the SHA-256 and length of its expected stdout,
recorded by running the CLI in-process.

A benchmark run sends the whole pool in every pass (``passes``); its own
seed sets the order.  So the program only ever sees inputs whose answers
are pinned, and every seed measures the same work.  Regenerate the
pools, with every answer cross-checked once by a route independent of the
cube solve, with::

    python3 bench/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS_DIR = BENCH / "corpus"
sys.path.insert(0, str(ROOT / "src"))

from skeinforge import (  # noqa: E402
    CONWAY,
    GENERIC,
    SkeinPolynomial,
    apply_cube,
    clear_cache,
    eval_vector,
    homfly,
    homfly_reference,
    invariant,
    parse_link,
    project_unordered,
    solve_coordinates,
    specialize_scalar,
)
from skeinforge.cli import main  # noqa: E402

CORPUS_SEED = 2521
WORKLOADS = ("classical_cold", "singular_generic")
# The d = 10 word whose cost split ROADMAP.md records.
ROADMAP_WORD = "5: t1 s2 t3 s4^-1 t2 s1^-1 t4 s3 t1 s2^-1 t3 s4 t2 s1 t4 s3^-1 t1 t2 s2 s1"
# (s1 s2 s3 s4)^6: 24 letters, the crossing bound, and a slow closure.
STRUCTURED_WORD = "5: " + " ".join(["s1 s2 s3 s4"] * 6)
# Cross-checking 5 and 6 strands with the memo-free reference is too slow.
REFERENCE_MAX_STRANDS = 4


def request(command: str, word: str) -> dict:
    return {"command": command, "word": word, "argv": [command, word]}


def random_word(rng: random.Random, strands: int, classical: int, sing: int = 0) -> str:
    """Seeded word text; singular crossings get a shuffled label suffix."""
    letters = [f"s{rng.randint(1, strands - 1)}{rng.choice(('', '^-1'))}" for _ in range(classical)]
    letters += [f"t{rng.randint(1, strands - 1)}" for _ in range(sing)]
    rng.shuffle(letters)
    text = f"{strands}: " + " ".join(letters)
    if sing:
        labels = list(range(1, sing + 1))
        rng.shuffle(labels)
        text += " | o = " + " ".join(map(str, labels))
    return text


def _draws(workload: str, rng: random.Random) -> list[dict]:
    if workload == "classical_cold":
        # One in six asks `invariant` of the classical word (d = 0), so the
        # skein layer is on the path, if only trivially.
        return [
            request("invariant" if rng.random() < 1 / 6 else "homfly", random_word(rng, strands, 24))
            for strands in (3, 4, 5, 6)
            for _ in range(30)
        ]
    # Fewer draws at large d, where one request costs seconds, so that
    # three passes fit in a run; d = 10 is the pinned word alone (6.5 s).
    mix = ((6, 14), (7, 10), (8, 4), (9, 1))
    return [
        request("invariant", random_word(rng, rng.choice((4, 5)), 10, d))
        for d, count in mix
        for _ in range(count)
    ]


def _pinned(workload: str) -> list[dict]:
    if workload == "classical_cold":
        return [request("homfly", STRUCTURED_WORD)]
    return [request("invariant", ROADMAP_WORD)]


def _refusals(workload: str, rng: random.Random) -> list[tuple[dict, int]]:
    """Inputs the CLI must refuse, with the exit code it must give."""
    if workload == "classical_cold":
        command, too_long = "homfly", random_word(rng, 5, 25)
    else:
        command, too_long = "invariant", random_word(rng, 5, 19, 6)
    return [
        (request(command, too_long), 3),
        (request("invariant", random_word(rng, 5, 4, 11)), 3),
        (request("homfly", random_word(rng, 4, 6, 2)), 4),
        (request(command, "4: s1 s2 s4 s3"), 2),
    ]


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """One CLI call in-process from a cold engine cache: exit code, stdout, seconds."""
    clear_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build(workload: str, seed: int = CORPUS_SEED) -> dict:
    """The pool of one workload, with expected outputs from the CLI."""
    rng = random.Random(f"{workload}:{seed}")
    entries = [("draw", r, 0) for r in _draws(workload, rng)]
    entries += [("pinned", r, 0) for r in _pinned(workload)]
    entries += [("refusal", r, code) for r, code in _refusals(workload, rng)]
    requests = []
    for n, (kind, req, refusal_code) in enumerate(entries):
        code, out, _ = run_cli(req["argv"])
        if code != refusal_code or (code and out):
            raise RuntimeError(f"{req['argv']} exited {code}, expected {refusal_code}")
        requests.append(
            {"id": f"{workload[0]}{n:03d}", "kind": kind, **req, "exit": code,
             "sha256": digest(out), "bytes": len(out.encode())}
        )
    return {"workload": workload, "seed": seed, "requests": requests}


def crosscheck(corpus: dict) -> int:
    """Check every answer once by a route independent of the cube solve.

    Classical values must match the memo-free reference evaluator (up to
    REFERENCE_MAX_STRANDS strands).  Cube coordinates pushed forward by
    ``apply_cube`` must give back ``eval_vector``, and generic answers
    specialized to t = 1 must equal the conway answers.  Each checked
    answer must also render to the pinned stdout.  Returns the number of
    checks made.
    """
    checks = 0
    for req in corpus["requests"]:
        if req["exit"] != 0:
            continue
        link = parse_link(req["word"])
        if link.d == 0:
            value = homfly(link.word, GENERIC, cache={})
            rendered = f"{value}\n"
            if link.word.strands <= REFERENCE_MAX_STRANDS:
                if homfly_reference(link.word, GENERIC) != value:
                    raise RuntimeError(f"reference disagrees on {req['word']}")
                checks += 1
        else:
            values = eval_vector(link, GENERIC)
            element = solve_coordinates(values, GENERIC)
            if apply_cube(element) != {bits: GENERIC.scalar(v) for bits, v in values.items()}:
                raise RuntimeError(f"apply_cube does not reproduce eval_vector on {req['word']}")
            poly = project_unordered(element)
            special = {k: specialize_scalar(c, CONWAY) for k, c in poly.coeffs.items()}
            if SkeinPolynomial(CONWAY, special) != invariant(link, CONWAY):
                raise RuntimeError(f"generic answer does not specialize to conway on {req['word']}")
            checks += 2
            rendered = f"{poly}\n"
        if digest(rendered) != req["sha256"]:
            raise RuntimeError(f"checked answer differs from the pinned output of {req['argv']}")
    return checks


def load(workload: str) -> dict:
    return json.loads((CORPUS_DIR / f"{workload}.json").read_text())


def passes(corpus: dict, seed: int):
    """Endless passes over the whole pool for one run seed.

    A pass sends the refusals and the pinned words first, then every draw
    in an order shuffled by the seed.
    """
    rng = random.Random(seed)
    reqs = corpus["requests"]
    fixed = [r for r in reqs if r["kind"] == "refusal"] + [r for r in reqs if r["kind"] == "pinned"]
    draws = [r for r in reqs if r["kind"] == "draw"]
    while True:
        yield fixed + rng.sample(draws, len(draws))


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    CORPUS_DIR.mkdir(exist_ok=True)
    commit = git_commit()
    for name in sys.argv[1:] or WORKLOADS:
        corpus = build(name)
        if build(name) != corpus:
            raise SystemExit(f"{name}: regenerating from the same seed is not identical")
        checks = crosscheck(corpus)
        corpus["generated_at"] = commit
        (CORPUS_DIR / f"{name}.json").write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"{name}: {len(corpus['requests'])} requests, {checks} cross-checks", flush=True)
