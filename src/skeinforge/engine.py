"""Two-variable polynomial values of closed classical braid words.

The evaluator expands a skein tree.  Walking the closure (components
taken in order of their lowest strand, each walked upward from level
zero), the first crossing met on its under-strand is the branch point:
switching it costs t^2 or t^(-2), smoothing it costs t x or -t^(-1) x,
per the defining relation x P0 = t^(-1) P+ - t P-.  A diagram with no
such crossing is descending, hence an unlink, worth delta^(c-1).

Before branching, words are freely reduced, conjugation-cancelled at
the seam, stripped of untouched strands (a delta factor each), and
destabilized at the top and bottom strand.  Values are cached under the
lexicographically least cyclic rotation of the reduced word, which is a
closure invariant.  Caches are per ring mode and behave as pure
functions of the word, so concurrent use is safe.

Each node of the tree is cheap: one reduction pass per round of
simplification (a round ends at each kink removed), with letter counts
per index that find every free strand and kink at once; a rotation key
compared only over the rotations that begin with the least letter (the
same key as the minimum over all rotations); one walk of the closure
along per-position chains of letters, which also counts the components
of a descending diagram; and skein coefficients that are monomials
interned on ``Ring``, so each branch's product is an exponent shift
(``LaurentPoly.__mul__``).
"""

from __future__ import annotations

from .braid import POS, SingularBraidWord
from .errors import BoundError, PreconditionError
from .rings import LaurentPoly, Ring

__all__ = ["DEFAULT_MAX_CROSSINGS", "unlink_value", "homfly", "clear_cache"]

DEFAULT_MAX_CROSSINGS = 24

_caches: dict[tuple, dict] = {}


def clear_cache() -> None:
    """Drop every memoized value the engine holds, for all ring modes."""
    _caches.clear()


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
    """Polynomial of the closure of a classical word, normalized to 1 on the unknot."""
    if not word.is_classical:
        raise PreconditionError(
            "word has singular crossings; resolve them before evaluating"
        )
    if len(word.letters) > max_crossings:
        raise BoundError(
            f"{len(word.letters)} crossings exceeds the bound {max_crossings}"
        )
    if cache is None:
        cache = _caches.setdefault(ring.key, {})
    return _closure_value(word.strands, word.letters, ring, cache)


# -- word simplification ----------------------------------------------


def _simplify(n: int, letters: tuple) -> tuple[int, tuple, int]:
    """Exact closure-preserving shrinking; returns (strands, letters, delta_pow).

    Each round makes one stack pass of free reduction that also counts
    the letters on each index, then cancels across the seam with two
    index pointers.  From the counts it drops every free strand in one
    renumbering and finds a kink on the top or bottom strand; removing a
    kink starts the next round.
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
            if last is not None and last[1] == i and last[0] == -kind:
                stack.pop()
                count[i] -= 1
                last = stack[-1] if stack else None
            else:
                stack.append(letter)
                count[i] += 1
                last = letter

        # The closure also cancels an inverse pair across the seam.
        lo, hi = 0, len(stack) - 1
        while lo < hi and stack[lo][1] == stack[hi][1] and stack[lo][0] == -stack[hi][0]:
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

        # Destabilize: a single crossing on the top (or bottom) strand
        # is a kink on the closure; remove it and the strand.
        if count[n - 1] == 1:
            edge = n - 1
        elif count[1] == 1:
            edge = 1
        else:
            return n, tuple(word), delta_pow
        q = next(q for q, letter in enumerate(word) if letter[1] == edge)
        word = word[q + 1 :] + word[:q]
        if edge == 1:
            word = [(kind, i - 1) for kind, i in word]
        n -= 1


def _min_rotation(letters: tuple) -> tuple:
    """The least cyclic rotation; it begins at an occurrence of the least letter."""
    if len(letters) <= 1:
        return letters
    least = min(letters)
    q = letters.index(least)
    best = letters[q:] + letters[:q]
    for _ in range(letters.count(least) - 1):
        q = letters.index(least, q + 1)
        rotation = letters[q:] + letters[:q]
        if rotation < best:
            best = rotation
    return best


def _first_bad(n: int, letters: tuple) -> tuple[int | None, int]:
    """Walk the closure: (k, 0) for the first crossing k met under-strand-first,
    or (None, components) when the diagram is descending.

    ``after[p]`` is the first letter touching position p, and ``up[k]``
    (``down[k]``) the next letter after k touching position i + 1 (i) of
    letter k = (kind, i), or m when there is none: per-position chains
    the walk advances along, so a call costs O(n + m).  Each walk from a
    position no earlier pass started at traces one closure component.
    """
    m = len(letters)
    after = [m] * (n + 2)
    up = [m] * m
    down = [m] * m
    k = m
    for _, i in reversed(letters):
        k -= 1
        down[k] = after[i]
        up[k] = after[i + 1]
        after[i] = after[i + 1] = k
    seen = [False] * m
    started = [False] * (n + 1)
    components = 0
    for s0 in range(1, n + 1):
        if started[s0]:
            continue
        components += 1
        pos = s0
        while True:
            started[pos] = True
            k = after[pos]
            while k < m:
                kind, i = letters[k]
                if pos == i:
                    # Coming in at i: over only on a positive crossing.
                    if not seen[k]:
                        if kind != POS:
                            return k, 0
                        seen[k] = True
                    pos = i + 1
                    k = up[k]
                else:
                    # Coming in at i + 1: over only on a negative crossing.
                    if not seen[k]:
                        if kind == POS:
                            return k, 0
                        seen[k] = True
                    pos = i
                    k = down[k]
            if pos == s0:
                break
    return None, components


def _closure_value(n0: int, letters0: tuple, ring: Ring, cache: dict) -> LaurentPoly:
    pos_steps = (ring.switch_pos, ring.smooth_pos)
    neg_steps = (ring.switch_neg, ring.smooth_neg)
    results: list[LaurentPoly] = []
    stack: list[tuple] = [("visit", n0, letters0)]
    while stack:
        frame = stack.pop()
        if frame[0] == "visit":
            _, n, letters = frame
            n, letters, delta_pow = _simplify(n, letters)
            mult = ring.delta_pow(delta_pow) if delta_pow else None
            key = (n, _min_rotation(letters))
            value = cache.get(key)
            if value is None:
                k, components = _first_bad(n, letters)
                if k is None:
                    value = ring.delta_pow(components - 1)
                    cache[key] = value
                else:
                    kind, i = letters[k]
                    smoothed = letters[:k] + letters[k + 1 :]
                    switched = letters[:k] + ((-kind, i),) + letters[k + 1 :]
                    coeffs = pos_steps if kind == POS else neg_steps
                    stack.append(("combine", key, mult, coeffs))
                    stack.append(("visit", n, switched))
                    stack.append(("visit", n, smoothed))
                    continue
            results.append(value * mult if mult is not None else value)
        else:
            _, key, mult, (c_switch, c_smooth) = frame
            v_switch = results.pop()
            v_smooth = results.pop()
            value = c_switch * v_switch + c_smooth * v_smooth
            cache[key] = value
            results.append(value * mult if mult is not None else value)
    return results[-1]
