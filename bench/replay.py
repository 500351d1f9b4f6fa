"""Traced replay of one benchmark request through the public layer functions.

A request is replayed as the CLI would run it, one layer call at a time:
``parse_link`` (braid), ``resolve_all`` for every pattern (braid),
``homfly(..., cache=...)`` for every resolution (homfly),
``solve_coordinates`` and ``project_unordered`` (skein), then the text the
CLI prints (cli.render).  Spans are recorded here, around each call into a
layer; the package itself is not instrumented.  The replay's bytes are
compared with the pinned CLI output, so it cannot drift from the CLI.

Only names the package exports are used, so the replay survives internal
refactors that keep the public API.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from skeinforge import (
    GENERIC,
    all_patterns,
    exact_div,
    homfly,
    parse_link,
    project_unordered,
    resolve_all,
    solve_coordinates,
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def span_seconds(reps: int = 20_000, repeats: int = 5) -> float:
    """Seconds one recorded span adds: an empty span timed in a loop, less the loop."""
    best = float("inf")
    for _ in range(repeats):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(reps):
            with tracer.span("empty"):
                pass
        t1 = time.perf_counter()
        for _ in range(reps):
            pass
        t2 = time.perf_counter()
        best = min(best, (t1 - t0) - (t2 - t1))
    return best / reps


def replay(req: dict, tracer) -> tuple[str, dict, list]:
    """Run one answered request layer by layer.

    Returns the rendered stdout, the request's counts and the numerators
    of its coordinates (the value itself for ``homfly``).
    """
    span = tracer.span
    cache: dict = {}
    counts = {"resolve_calls": 0, "homfly_calls": 0, "patterns": 0, "max_dpow": 0}
    with span("request"):
        with span("braid.parse_link"):
            link = parse_link(req["word"])
        if req["command"] == "homfly":
            with span("homfly"):
                value = homfly(link.word, GENERIC, cache=cache)
            counts["homfly_calls"] = 1
            counts["value_terms"] = len(value.terms)
            with span("cli.render"):
                out = f"{value}\n"
            numerators = [value]
        else:
            patterns = list(all_patterns(link.d))
            values = {}
            for bits in patterns:
                with span("braid.resolve_all"):
                    word = resolve_all(link, bits)
                with span("homfly"):
                    values[bits] = homfly(word, GENERIC, cache=cache)
            with span("skein.solve_coordinates"):
                element = solve_coordinates(values, GENERIC)
            with span("skein.project_unordered"):
                poly = project_unordered(element)
            with span("cli.render"):
                out = f"{poly}\n"
            counts.update(
                resolve_calls=len(patterns),
                homfly_calls=len(patterns),
                patterns=len(patterns),
                max_dpow=max((c.dpow for c in element.coords.values()), default=0),
                value_terms=sum(len(v.terms) for v in values.values()),
            )
            numerators = [c.num for c in element.coords.values()]
    counts["nodes"] = len(cache)
    counts["max_terms"] = max((len(n.terms) for n in numerators), default=0)
    return out, counts, numerators


def kernel_replay(numerators: list, term_budget: int) -> dict:
    """Time ``n * D`` and ``exact_div(n * D, D)`` per term of n.

    Takes numerators in order until ``term_budget`` terms are used, and
    checks that the division gives n back.
    """
    denom = GENERIC.denom
    mul_s = div_s = 0.0
    terms = 0
    wrong = 0
    for num in numerators:
        if terms >= term_budget:
            break
        t0 = time.perf_counter()
        product = num * denom
        t1 = time.perf_counter()
        quotient = exact_div(product, denom)
        t2 = time.perf_counter()
        mul_s += t1 - t0
        div_s += t2 - t1
        terms += len(num.terms)
        wrong += quotient != num
    return {
        "mul_us_per_term": 1e6 * mul_s / max(terms, 1),
        "div_us_per_term": 1e6 * div_s / max(terms, 1),
        "terms": terms,
        "wrong": wrong,
    }
