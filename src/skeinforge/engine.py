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
"""

from __future__ import annotations

from .braid import POS, SingularBraidWord, closure_components
from .errors import BoundError, PreconditionError
from .rings import LaurentPoly, Ring

__all__ = ["DEFAULT_MAX_CROSSINGS", "unlink_value", "homfly", "clear_cache"]

DEFAULT_MAX_CROSSINGS = 24

_caches: dict[tuple, dict] = {}
_skein_coeffs: dict[tuple, tuple] = {}


def clear_cache() -> None:
    """Drop every memoized value the engine holds, for all ring modes."""
    _caches.clear()
    _skein_coeffs.clear()


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
    """Exact closure-preserving shrinking; returns (strands, letters, delta_pow)."""
    word = list(letters)
    delta_pow = 0
    changed = True
    while changed:
        changed = False

        # Free reduction: cancel adjacent inverse pairs.
        stack: list = []
        for letter in word:
            if stack and stack[-1][1] == letter[1] and stack[-1][0] == -letter[0]:
                stack.pop()
                changed = True
            else:
                stack.append(letter)
        word = stack

        # The closure also cancels an inverse pair across the seam.
        while len(word) >= 2 and word[0][1] == word[-1][1] and word[0][0] == -word[-1][0]:
            word = word[1:-1]
            changed = True

        # A strand no letter touches closes to a split unknot: drop it
        # and keep a delta factor.
        if n > 1:
            touched = [False] * (n + 2)
            for _, i in word:
                touched[i] = True
                touched[i + 1] = True
            free = next((s for s in range(1, n + 1) if not touched[s]), None)
            if free is not None:
                word = [(k, i - 1 if i > free else i) for k, i in word]
                n -= 1
                delta_pow += 1
                changed = True
                continue

        if not word:
            continue

        # Destabilize: a single crossing on the top (or bottom) strand
        # is a kink on the closure; remove it and the strand.
        top = n - 1
        occurrences = [q for q, (_, i) in enumerate(word) if i == top]
        if len(occurrences) == 1:
            q = occurrences[0]
            word = word[q + 1 :] + word[:q]
            n -= 1
            changed = True
            continue
        occurrences = [q for q, (_, i) in enumerate(word) if i == 1]
        if n > 1 and len(occurrences) == 1:
            q = occurrences[0]
            word = [(k, i - 1) for k, i in word[q + 1 :] + word[:q]]
            n -= 1
            changed = True

    return n, tuple(word), delta_pow


def _min_rotation(letters: tuple) -> tuple:
    if len(letters) <= 1:
        return letters
    return min(letters[k:] + letters[:k] for k in range(len(letters)))


def _first_bad(n: int, letters: tuple) -> int | None:
    """Index of the first crossing met under-strand-first, or None if descending."""
    m = len(letters)
    seen = [False] * m
    started = [False] * (n + 1)
    for s0 in range(1, n + 1):
        if started[s0]:
            continue
        pos = s0
        while True:
            started[pos] = True
            for k in range(m):
                kind, i = letters[k]
                if pos == i or pos == i + 1:
                    if not seen[k]:
                        seen[k] = True
                        over = (pos == i) if kind == POS else (pos == i + 1)
                        if not over:
                            return k
                    pos = i + 1 if pos == i else i
            if pos == s0:
                break
    return None


def _coeffs(ring: Ring) -> tuple:
    cached = _skein_coeffs.get(ring.key)
    if cached is None:
        t, t_inv, x = ring.t, ring.t_inv, ring.x
        cached = (t * t, t * x, t_inv * t_inv, -(t_inv * x))
        _skein_coeffs[ring.key] = cached
    return cached


def _closure_value(n0: int, letters0: tuple, ring: Ring, cache: dict) -> LaurentPoly:
    sw_pos, sm_pos, sw_neg, sm_neg = _coeffs(ring)
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
                k = _first_bad(n, letters)
                if k is None:
                    value = ring.delta_pow(closure_components(n, letters) - 1)
                    cache[key] = value
                else:
                    kind, i = letters[k]
                    smoothed = letters[:k] + letters[k + 1 :]
                    switched = letters[:k] + ((-kind, i),) + letters[k + 1 :]
                    coeffs = (sw_pos, sm_pos) if kind == POS else (sw_neg, sm_neg)
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
