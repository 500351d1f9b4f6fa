"""One closed-loop client running one workload in a fresh interpreter.

    python3 bench/client.py WORKLOAD SEED SECONDS TRACE

``bench/run.py`` starts it with the repo's ``src`` on ``PYTHONPATH``.  The
client sends each request only after the previous one completed, from the
run seed's passes over the pinned pool.  Every answer is checked against
its pinned exit code and stdout digest before its time counts.  The last
stdout line is one JSON object: the counts, the metrics and an ``info``
record.

TRACE 0 answers each request with ``skeinforge.cli.main(argv)``, after
``clear_cache()`` so each pays the cold-engine cost of a fresh process,
and reports the end-to-end metrics.  It makes whole passes over the pool
while the next pass can end within SECONDS (the first always runs).
Before each request the client moves to the CPU that is fastest at that
moment, and each call's wall time is scaled to reference speed by the
calibration kernel's times around and during it (``cpu.py``).  A
request's latency is the median of its scaled times over the passes;
throughput is the pool's requests, refusals included, per second of one
pass at those latencies.

TRACE 1 starts no request after SECONDS.  It replays each answered
request layer by layer with spans recorded, reports per-layer metrics per
answered request, and writes the spans to ``.bench_out/`` when it ends.
The cost of tracing is the span count times the cost of one empty span.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from itertools import chain

from corpus import ROOT, digest, load, passes, run_cli
from cpu import Speedometer, pin_fastest
from replay import Tracer, kernel_replay, replay, span_seconds

# Terms of coordinate numerators the rings kernel replay times.
KERNEL_TERMS = 40_000
# Spans of pinned requests are summed per layer into the info record.
SPLIT_LAYERS = ("braid.resolve_all", "homfly", "skein.solve_coordinates", "skein.project_unordered", "cli.render")


def run_plain(corpus: dict, seed: int, seconds: float) -> dict:
    samples: dict[str, list[float]] = defaultdict(list)
    attempted = 0
    failures: list[str] = []
    pass_s: list[float] = []
    start = time.perf_counter()
    for batch in passes(corpus, seed):
        if pass_s and time.perf_counter() - start + pass_s[-1] > seconds:
            break
        for req in batch:
            gc.collect()
            with Speedometer() as speed:
                code, out, elapsed = run_cli(req["argv"])
            elapsed = speed.at_reference(elapsed)
            attempted += 1
            if code != req["exit"] or digest(out) != req["sha256"]:
                failures.append(req["id"])
            else:
                samples[req["id"]].append(elapsed)
        pass_s.append(time.perf_counter() - start - sum(pass_s))
    typical = {req_id: statistics.median(times) for req_id, times in samples.items()}
    answered = [req["id"] for req in corpus["requests"] if req["exit"] == 0]
    latencies = sorted(typical[i] for i in answered if i in typical)
    n = len(latencies)
    # The highest order statistic with ten samples beyond it.
    tail_rank = max(n - 11, 0)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            "latency_p50_ms": 1e3 * statistics.median(latencies) if n else 0.0,
            "latency_tail_ms": 1e3 * latencies[tail_rank] if n else 0.0,
            # One pass over the pool with every request at its median time.
            "throughput_rps": len(typical) / sum(typical.values()) if typical else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "info": {
            "passes": len(pass_s),
            "pass_s": [round(t, 3) for t in pass_s],
            "latency_samples": n,
            "tail_percentile": round(100 * (tail_rank + 1) / n, 2) if n else 0.0,
        },
    }


def _layer_times(spans: list[list]) -> tuple[dict, dict]:
    """Total and self seconds per span name; self excludes child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[k]
    return total, own


def run_traced(corpus: dict, seed: int, seconds: float, workload: str) -> dict:
    tracer = Tracer()
    attempted = 0
    failures: list[str] = []
    counts: list[dict] = []
    numerators: list = []
    kept_terms = 0
    traced_s = 0.0
    pinned = {r["id"] for r in corpus["requests"] if r["kind"] == "pinned"}
    deadline = time.perf_counter() + seconds
    for req in chain.from_iterable(passes(corpus, seed)):
        if time.perf_counter() >= deadline:
            break
        attempted += 1
        pin_fastest()
        if req["exit"] != 0:
            code, out, _ = run_cli(req["argv"])
            if code != req["exit"] or out:
                failures.append(req["id"])
            continue
        tracer.request = f"{attempted}:{req['id']}"
        start = time.perf_counter()
        out, c, nums = replay(req, tracer)
        traced_s += time.perf_counter() - start
        if digest(out) != req["sha256"]:
            failures.append(req["id"])
            continue
        counts.append({"request": tracer.request, **c})
        if kept_terms < KERNEL_TERMS:
            numerators += nums
            kept_terms += sum(len(n.terms) for n in nums)
    kernel = kernel_replay(numerators, KERNEL_TERMS)
    if kernel["wrong"]:
        failures.append("rings.exact_div")

    total, own = _layer_times(tracer.spans)
    # Tracing adds its spans' own cost; an untraced replay differs by less
    # than the noise between two replays, so it is not timed.
    span_cost = len(tracer.spans) * span_seconds()
    answered = max(len(counts), 1)
    summed = {key: sum(c[key] for c in counts) for key in ("resolve_calls", "homfly_calls", "nodes", "patterns")}
    metrics = {
        "braid.parse_link.s": total["braid.parse_link"] / answered,
        "braid.resolve_all.s": total["braid.resolve_all"] / answered,
        "braid.resolve_all.calls": summed["resolve_calls"] / answered,
        "homfly.s": total["homfly"] / answered,
        "homfly.calls": summed["homfly_calls"] / answered,
        "homfly.nodes": summed["nodes"] / answered,
        "homfly.nodes_per_call": summed["nodes"] / max(summed["homfly_calls"], 1),
        "skein.solve_coordinates.s": total["skein.solve_coordinates"] / answered,
        "skein.project_unordered.s": total["skein.project_unordered"] / answered,
        "skein.patterns": summed["patterns"] / answered,
        "skein.max_dpow": max((c["max_dpow"] for c in counts), default=0),
        "skein.max_terms": max((c["max_terms"] for c in counts), default=0),
        "rings.mul.us_per_term": kernel["mul_us_per_term"],
        "rings.exact_div.us_per_term": kernel["div_us_per_term"],
        "cli.render.s": total["cli.render"] / answered,
        "request.self.s": own["request"] / answered,
        "trace.overhead_frac": span_cost / (traced_s - span_cost) if traced_s > span_cost else 0.0,
    }

    split: dict[str, dict] = {}
    for name, start, end, _, rid in tracer.spans:
        req_id = rid.split(":", 1)[1]
        if req_id in pinned and name in SPLIT_LAYERS:
            layers = split.setdefault(rid, {"id": req_id})
            layers[name] = layers.get(name, 0.0) + end - start
    self_total = sum(own.values()) or 1.0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.json"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans_path.write_text(
        json.dumps(
            {
                "fields": ["name", "start_us", "end_us", "parent", "request"],
                "spans": [
                    [n, round(1e6 * (s - origin)), round(1e6 * (e - origin)), p, r]
                    for n, s, e, p, r in tracer.spans
                ],
                "counts": counts,
            }
        )
    )
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "info": {
            "answered": len(counts),
            "self_share": {k: round(v / self_total, 4) for k, v in sorted(own.items())},
            "largest_self": max(own, key=own.get) if own else None,
            "pinned_split_s": list(split.values()),
            "kernel_terms": kernel["terms"],
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
    }


if __name__ == "__main__":
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    corpus = load(workload)
    # Objects alive now stay for the whole run; the collection before each
    # request then walks only what the previous requests left.
    gc.freeze()
    if trace == "1":
        result = run_traced(corpus, seed, seconds, workload)
    else:
        result = run_plain(corpus, seed, seconds)
    print(json.dumps(result))
