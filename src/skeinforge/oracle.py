"""Memo-free skein expansion used to cross-check the main evaluator.

This is the package's only skein tree.  It branches at the first
crossing met under-strand-first on the closure until the diagram is
descending, an unlink.  The engine instead traces a Hecke-algebra
product, so the two share no algorithm and no code.  Deliberately
naive: no word simplification, no caching, and a freshly built
traversal at every node.
"""

from __future__ import annotations

from .braid import POS, SingularBraidWord
from .errors import PreconditionError
from .rings import LaurentPoly, Ring

__all__ = ["homfly_reference"]


def _passages(n: int, letters: tuple):
    """Successor table over arcs plus the crossing met when leaving each arc.

    An arc is (position, level) with level 0..m; leaving arc (p, k) for
    k < m may pass through letter k, entering on its left (position i)
    or right (position i+1) side.
    """
    m = len(letters)
    succ = {}
    gate = {}
    for level in range(m):
        kind, i = letters[level]
        for p in range(1, n + 1):
            if p == i:
                succ[(p, level)] = (i + 1, level + 1)
                gate[(p, level)] = (level, "left")
            elif p == i + 1:
                succ[(p, level)] = (i, level + 1)
                gate[(p, level)] = (level, "right")
            else:
                succ[(p, level)] = (p, level + 1)
    for p in range(1, n + 1):
        succ[(p, m)] = (p, 0)
    return succ, gate


def _first_under_first(n: int, letters: tuple) -> int | None:
    succ, gate = _passages(n, letters)
    met: set[int] = set()
    done: set[tuple] = set()
    for s in range(1, n + 1):
        start = (s, 0)
        if start in done:
            continue
        arc = start
        while True:
            done.add(arc)
            hit = gate.get(arc)
            if hit is not None:
                k, side = hit
                if k not in met:
                    met.add(k)
                    kind = letters[k][0]
                    over = side == ("left" if kind == POS else "right")
                    if not over:
                        return k
            arc = succ[arc]
            if arc == start:
                break
    return None


def _component_count(n: int, letters: tuple) -> int:
    succ, _ = _passages(n, letters)
    done: set[tuple] = set()
    count = 0
    for s in range(1, n + 1):
        start = (s, 0)
        if start in done:
            continue
        count += 1
        arc = start
        while True:
            done.add(arc)
            arc = succ[arc]
            if arc == start:
                break
    return count


def homfly_reference(word: SingularBraidWord, ring: Ring) -> LaurentPoly:
    """Full skein-tree expansion of the closure, with no shortcuts."""
    if not word.is_classical:
        raise PreconditionError("reference evaluator takes classical words only")
    n = word.strands
    t, t_inv, x = ring.t, ring.t_inv, ring.x
    switch_pos, smooth_pos = t * t, t * x
    switch_neg, smooth_neg = t_inv * t_inv, -(t_inv * x)

    def expand(letters: tuple) -> LaurentPoly:
        k = _first_under_first(n, letters)
        if k is None:
            return ring.delta_pow(_component_count(n, letters) - 1)
        kind, i = letters[k]
        switched = letters[:k] + ((-kind, i),) + letters[k + 1 :]
        smoothed = letters[:k] + letters[k + 1 :]
        if kind == POS:
            return switch_pos * expand(switched) + smooth_pos * expand(smoothed)
        return switch_neg * expand(switched) + smooth_neg * expand(smoothed)

    return expand(word.letters)
