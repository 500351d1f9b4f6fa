"""Two-variable polynomial values of closed braid words, by one Hecke-algebra pass.

The defining relation x P0 = t^(-1) P+ - t P- is the quadratic relation
g_i^2 = t x g_i + t^2 of the Hecke algebra H_n, and the value of a
closure is the Ocneanu trace of the word's image in H_n (Jones,
Ann. Math. 126, 1987; Morton-Short, J. Algorithms 11, 1990).  One pass
over the word multiplies on the right in the basis T_w, w in S_n,
permutations in one-line notation.  With v = w s_i, ``_act`` applies

    w(i) < w(i+1):  T_w g_i = T_v,
                    T_w g_i^(-1) = t^(-2) T_v - t^(-1) x T_w;
    otherwise:      T_w g_i = t x T_w + t^2 T_v,
                    T_w g_i^(-1) = T_v,

whose four monomials, the skein steps interned on ``Ring``, act as
exponent shifts with a coefficient on a state of plain integers
{(g, w, e_t, e_x): c}, reduced mod p once per letter.  The trace
satisfies tau(T_w) = delta tau(T_w restricted to n - 1) when w fixes n,
and tau_n(a g_(n-1) b) = tau_(n-1)(a b) for a, b in H_(n-1), with no
writhe factor.  So a w moving n is peeled as w = u s_(n-1) ... s_k, and
tau_n(T_w) = tau_(n-1)(T_u g_(n-2) ... g_k), that product expanded with
``_act``.  Trace values are memoized per permutation in a table that
lives for one call (or in the caller's ``cache``), so it holds at most
1! + ... + n! entries.

A singular letter t_i acts as 1 + Y g_i^(-1): resolution bit 0 is the
smoothing (the identity braid) and bit 1 the negative crossing, so the
state keeps the power g of Y beside w, and the Y^g part of the pass,
traced, is the sum S_g of the values of the resolutions with g ones.
Before the pass, words are freely reduced, conjugation-cancelled at the
seam, stripped of untouched strands (a delta factor each), and
destabilized at the top and bottom strand; singular letters never
cancel and are never kinks.
"""

from __future__ import annotations

from .braid import POS, SING, SingularBraidWord
from .errors import BoundError, PreconditionError
from .rings import LaurentPoly, Ring, _canonical, _same_ring

__all__ = ["DEFAULT_MAX_CROSSINGS", "MAX_STRANDS", "unlink_value", "homfly", "weight_sums", "clear_cache"]

DEFAULT_MAX_CROSSINGS = 24
# "2048: s1" answers in about 2 s: each free strand costs a delta factor.
MAX_STRANDS = 2048


def clear_cache() -> None:
    """Do nothing: no state outlives a call.  Kept as ``bench/`` still calls it."""


def unlink_value(ring: Ring, k: int) -> LaurentPoly:
    """Value of the k-component unlink, delta^(k-1); the empty link is excluded."""
    if k < 1:
        raise PreconditionError("links have at least one component")
    return ring.delta_pow(k - 1)


def homfly(
    word: SingularBraidWord,
    ring: Ring,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    cache: dict | None = None,
) -> LaurentPoly:
    """Polynomial of the closure of a classical word, normalized to 1 on the unknot.

    ``cache`` is a caller-owned trace table (a dict keyed by permutation)
    shared across calls in one ring; by default each call has its own.  A
    table that holds values of another ring raises ``ValueError``.
    """
    if not word.is_classical:
        raise PreconditionError(
            "word has singular crossings; resolve them before evaluating"
        )
    if len(word.letters) > max_crossings:
        raise BoundError(
            f"{len(word.letters)} crossings exceeds the bound {max_crossings}"
        )
    _check_strands(word)
    return weight_sums(word, ring, cache=cache)[0]


def _check_strands(word: SingularBraidWord) -> None:
    """Refuse a declared strand count above MAX_STRANDS before any per-strand work."""
    if word.strands > MAX_STRANDS:
        raise BoundError(f"{word.strands} strands exceeds the bound {MAX_STRANDS}")


def weight_sums(
    word: SingularBraidWord, ring: Ring, *, cache: dict | None = None
) -> list[LaurentPoly]:
    """[S_0, ..., S_d]: S_g sums the values of the resolutions with g negative crossings.

    Resolving the d singular letters gives 2^d classical closures; S_g
    is the sum over those whose pattern has g ones.  No bound is checked.
    ``cache`` must hold values of ``ring`` only, else ``ValueError``.
    """
    table = {} if cache is None else cache
    # Every value a pass stores is of its ring, so one stored value decides.
    for stored in table.values():
        _same_ring(stored.ring, ring)
        break
    monomials = (ring.smooth_pos, ring.switch_pos, ring.smooth_neg, ring.switch_neg)
    steps = tuple((*key, c) for m in monomials for key, c in m.terms.items())
    n, letters, delta_pow = _simplify(word.strands, word.letters)
    state = {(0, tuple(range(n)), 0, 0): 1}
    for kind, i in letters:
        state = _act(state, kind, i, steps, ring.p)
    sums = _contract(state, word.sing_count, ring, table, steps)
    if delta_pow:
        factor = ring.delta_pow(delta_pow)
        sums = [s * factor for s in sums]
    return sums


def _act(state: dict, kind: int, i: int, steps: tuple, p: int | None) -> dict:
    """The state times g_i (POS), g_i^(-1) (NEG) or 1 + Y g_i^(-1) (SING)."""
    pos, sing = kind == POS, kind == SING
    # The smoothing stays at T_w and the switch moves to T_v.
    (mt, mx, mc), (nt, nx, nc) = steps[:2] if pos else steps[2:]
    out: dict = {}
    get = out.get
    swaps: dict = {}
    for key, c in state.items():
        g, w, e_t, e_x = key
        if sing:
            out[key] = get(key, 0) + c
            g += 1
        a, b = w[i - 1], w[i]
        v = swaps.get(w)
        if v is None:
            v = swaps[w] = w[: i - 1] + (b, a) + w[i + 1 :]
        if (a < b) == pos:
            # g_i lengthens w, or g_i^(-1) shortens it: a plain move to T_v.
            key = (g, v, e_t, e_x)
            out[key] = get(key, 0) + c
        else:
            key, other = (g, w, e_t + mt, e_x + mx), (g, v, e_t + nt, e_x + nx)
            out[key] = get(key, 0) + c * mc
            out[other] = get(other, 0) + c * nc
    return _canonical(out, p)


def _contract(state: dict, d: int, ring: Ring, table: dict, steps: tuple) -> list[LaurentPoly]:
    """[sum over the Y^g part of c t^e_t x^e_x tau(T_w) for g in 0..d]."""
    accs: list[dict] = [{} for _ in range(d + 1)]
    for (g, w, e_t, e_x), c in state.items():
        acc = accs[g]
        for (ft, fx), f in _tau(w, ring, table, steps).terms.items():
            key = (e_t + ft, e_x + fx)
            acc[key] = acc.get(key, 0) + c * f
    return [LaurentPoly._raw(ring, _canonical(acc, ring.p)) for acc in accs]


def _tau(w: tuple, ring: Ring, table: dict, steps: tuple) -> LaurentPoly:
    """Ocneanu trace of T_w, normalized so the one-strand closure is 1."""
    value = table.get(w)
    if value is not None:
        return value
    n = len(w)
    if n <= 1:
        value = ring.one
    elif w[-1] == n - 1:
        value = ring.delta * _tau(w[:-1], ring, table, steps)
    else:
        # w = u s_(n-1) ... s_(k+1), with n at (0-based) position k.
        k = w.index(n - 1)
        state = {(0, w[:k] + w[k + 1 :], 0, 0): 1}
        for i in range(n - 2, k, -1):
            state = _act(state, POS, i, steps, ring.p)
        value = _contract(state, 0, ring, table, steps)[0]
    table[w] = value
    return value


# -- word simplification ----------------------------------------------


def _simplify(n: int, letters: tuple) -> tuple[int, tuple, int]:
    """Exact closure-preserving shrinking; returns (strands, letters, delta_pow).

    Each round makes one stack pass of free reduction that also counts
    the letters on each index, then cancels across the seam with two
    index pointers.  From the counts it drops every free strand in one
    renumbering and finds a kink on the top or bottom strand; removing a
    kink starts the next round.  Singular letters never cancel and are
    never kinks, so the value of every resolution is kept.
    """
    word = letters
    delta_pow = 0
    while True:
        # Free reduction: cancel adjacent inverse pairs.
        count = [0] * (n + 1)
        stack: list = []
        last = None
        for letter in word:
            kind, i = letter
            if kind and last is not None and last[1] == i and last[0] == -kind:
                stack.pop()
                count[i] -= 1
                last = stack[-1] if stack else None
            else:
                stack.append(letter)
                count[i] += 1
                last = letter

        # The closure also cancels an inverse pair across the seam.
        lo, hi = 0, len(stack) - 1
        while (
            lo < hi
            and stack[lo][0]
            and stack[lo][1] == stack[hi][1]
            and stack[lo][0] == -stack[hi][0]
        ):
            count[stack[lo][1]] -= 2
            lo += 1
            hi -= 1
        if lo > hi:
            return 1, (), delta_pow + n - 1
        word = stack[lo : hi + 1] if lo else stack

        # A strand no letter touches closes to a split unknot: drop it
        # and keep a delta factor.  Such a strand needs a zero count
        # between the two that are always zero, count[0] and count[n];
        # shift[s] counts the free strands below a touched strand s.
        drop = 0
        if count.count(0) > 2:
            shift = [0] * (n + 1)
            for s in range(1, n + 1):
                if count[s - 1] or count[s]:
                    shift[s] = drop
                else:
                    drop += 1
        if drop:
            word = [(kind, i - shift[i]) for kind, i in word]
            n -= drop
            delta_pow += drop
            count = [0] * (n + 1)
            for _, i in word:
                count[i] += 1

        # Destabilize: a single classical crossing on the top (or
        # bottom) strand is a kink on the closure; remove it and the
        # strand.
        for edge in (n - 1, 1):
            if count[edge] == 1:
                q = next(q for q, letter in enumerate(word) if letter[1] == edge)
                if word[q][0] != SING:
                    break
        else:
            return n, tuple(word), delta_pow
        word = word[q + 1 :] + word[:q]
        if edge == 1:
            word = [(kind, i - 1) for kind, i in word]
        n -= 1
