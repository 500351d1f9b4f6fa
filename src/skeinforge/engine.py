"""Two-variable polynomial values of closed braid words, by one Hecke-algebra pass.

The defining relation x P0 = t^(-1) P+ - t P- is the quadratic relation
g_i^2 = t x g_i + t^2 of the Hecke algebra H_n, and the value of a
closure is the Ocneanu trace of the word's image in H_n (Jones,
Ann. Math. 126, 1987; Morton-Short, J. Algorithms 11, 1990).  One pass
over the word multiplies on the right in the basis T_w, w in S_n,
permutations in one-line notation.  With v = w s_i, ``_Pass.act`` applies

    w(i) < w(i+1):  T_w g_i = T_v,
                    T_w g_i^(-1) = t^(-2) T_v - t^(-1) x T_w;
    otherwise:      T_w g_i = t x T_w + t^2 T_v,
                    T_w g_i^(-1) = T_v,

whose four monomials are the skein steps of ``_Pass``.  Every
term of the state is one int mapped to its integer coefficient,

    key = W << _OW | g << _OG | (e_t + _BIAS) << _F | (e_x + _BIAS),

where W holds w(k) in its k-th 11-bit digit, g is the power of Y (see
below) and the two exponents sit biased in 32-bit fields.  So each
skein step adds a constant to the key: a monomial t^a x^b adds its
packed shift (a << _F) + b, and T_w -> T_v adds (w(i+1) - w(i)) times
(1 << lo) - (1 << hi), lo and hi the offsets of the two digits.  No
tuple is built per term.  Over GF(p) coefficients are reduced once per
letter; over the integers ``act`` returns the dict it built, so a zero
may stay in the state until it is read, and every reader (the next
``act``, a singular letter's copy, ``contract``, the fill's permutation
set) skips it, which keeps every work count and table entry.  The
fields never wrap: MAX_STRANDS keeps w(k) below 2^11, a word with more
singular letters than the grade field holds is refused, and MAX_WORK,
a bound on the terms ``act`` produces in one pass (one
``weight_sums`` call, its trace expansions included), also bounds the
letters and so the exponents.  Each bound raises ``BoundError``.  The
2^d resolution passes of one ``eval_vector`` call share one count
instead, against ``skein.MAX_CUBE_WORK``, so ``invariant --ordered`` is
bounded by MAX_WORK for its graded pass and by MAX_CUBE_WORK for the rest.

The trace satisfies tau(T_w) = delta tau(T_w restricted to n - 1) when
w fixes n, and tau_n(a g_(n-1) b) = tau_(n-1)(a b) for a, b in H_(n-1),
with no writhe factor.  So a w moving n is peeled as
w = u s_(n-1) ... s_k, and tau_n(T_w) = tau_(n-1)(T_u g_(n-2) ... g_k),
that product expanded with ``act``.  Trace values are the items of
{packed exponents: coefficient} dicts, memoized by W in a table that lives
for one call (or in the caller's ``cache``, which also keeps its ring
under the key None), so it holds at most 1! + ... + n! entries.  W
determines w and its length (its largest digit is n - 1), so
permutations of different strand counts never share an entry.  The
table is filled one strand level at a time: the level's missing
permutations are expanded as one state, each labelled by its index in
the grade field (0 in every expansion; ``act`` never reads it), so
those with the same k share one ``act`` per letter, and one
``contract`` gives every value of the level.  ``contract`` splits its
sum by the grade field, so the same call gives the graded pass its
weight sums and the fill its values by label.

A singular letter t_i acts as 1 + Y g_i^(-1): resolution bit 0 is the
smoothing (the identity braid) and bit 1 the negative crossing, so the
Y^g part of the pass, traced, is the sum S_g of the values of the
resolutions with g ones.  Before the pass, words are freely reduced up
to far commutation (letters two or more indices apart commute, t_i
too), conjugation-cancelled at the seam up to the same commutation,
stripped of untouched strands (a delta factor each), and destabilized
at the top and bottom strand; singular letters never cancel, block the
cancellations on their index and both neighbours, and are never kinks
(``_simplify``).  The trace is cyclic, so a word with singular letters
is then rotated to start where a cheap estimate of the pass's support
is least (``_cheapest_rotation``): only the word itself and the starts
just after a singular letter are scored.  Classical words, and so
``homfly`` and the resolution passes of ``eval_vector``, start where
they stand: scoring all their rotations costs more than it saves on the
short words they mostly are.
"""

from __future__ import annotations

from .braid import POS, SING, SingularBraidWord
from .errors import BoundError, PreconditionError
from .rings import LaurentPoly, Ring, _canonical, _same_ring

__all__ = ["DEFAULT_MAX_CROSSINGS", "homfly", "clear_cache"]

DEFAULT_MAX_CROSSINGS = 24
# "2048: s1" answers in about 2 s: each free strand costs a delta factor.
MAX_STRANDS = 2048
# State terms that one pass (one weight_sums call) may produce, in the
# pass and in trace expansions together.  The pinned corpora and the check
# suites peak at 13,077 (the d = 10 word, 19,623 unrotated), the tests at
# 166,963 (the 12-strand d = 10 word of the shared cube budget test,
# 149,164 unrotated); the widest 24-letter words run past this within a
# fraction of a second.
MAX_WORK = 250_000

# The packed key: exponents in two biased 32-bit fields, then a 16-bit
# grade, then one 11-bit digit per strand from bit _OW up.
_F = 32
_OG = 2 * _F
_OW = _OG + 16
_WIDTH = 11
_BIAS = 1 << (_F - 1)
_ZERO = _BIAS << _F | _BIAS  # the exponents of t^0 x^0
_ONE_G = 1 << _OG
_EXPS = _ONE_G - 1
_LOW = (1 << _OW) - 1
_DIGIT = (1 << _WIDTH) - 1
_MAX_GRADE = (1 << (_OW - _OG)) - 1
# The trace table fill labels each permutation it expands together in
# the 16-bit grade field, so one expansion takes at most this many.
_LABELS = _MAX_GRADE + 1


def clear_cache() -> None:
    """Do nothing: no state outlives a call.

    Kept only because ``bench/`` calls it; it goes when the benchmark
    drops those calls (ROADMAP item 1(c)).
    """


def homfly(
    word: SingularBraidWord,
    ring: Ring,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    cache: dict | None = None,
) -> LaurentPoly:
    """Polynomial of the closure of a classical word, normalized to 1 on the unknot.

    ``cache`` is a caller-owned trace table shared across calls in one
    ring: it maps packed permutations to packed trace values, each the
    ``items()`` view of a {packed exponents: c} dict (views do not
    pickle, and compare equal as sets, not to lists), and keeps its ring
    under the key None.  By default each call has its own.  A
    table of another ring raises ``ValueError``.  ``bench/`` replays
    with one until ROADMAP item 1(c) retires that replay.
    """
    if not word.is_classical:
        raise PreconditionError(
            "word has singular crossings; resolve them before evaluating"
        )
    _check_crossings(word, max_crossings)
    table = {} if cache is None else cache
    _same_ring(table.setdefault(None, ring), ring)
    return _decode(ring, _packed_sums(word, ring, _Pass(ring, table))[0])


def _check_crossings(word: SingularBraidWord, max_crossings: int) -> None:
    """Refuse a word of more letters than max_crossings, for ``homfly`` and ``invariant`` alike."""
    if len(word.letters) > max_crossings:
        raise BoundError(f"{len(word.letters)} crossings exceeds the bound {max_crossings}")


def weight_sums(word: SingularBraidWord, ring: Ring) -> list[LaurentPoly]:
    """[S_0, ..., S_d]: S_g sums the values of the resolutions with g negative crossings.

    Resolving the d singular letters gives 2^d classical closures; S_g
    is the sum over those whose pattern has g ones.  Raises
    ``BoundError`` above MAX_STRANDS declared strands, above 65535
    singular letters or above MAX_WORK state terms.  No subcommand calls
    this (``invariant`` reads the packed sums); the tests do.
    """
    return [_decode(ring, s) for s in _packed_sums(word, ring)]


def _packed_sums(word: SingularBraidWord, ring: Ring, run: _Pass | None = None) -> list[dict]:
    """``weight_sums`` as {packed exponents: c} dicts.

    ``run`` is a pass of ``ring`` that earlier calls may have used: its
    trace table and its work count carry over.  By default the call has
    a pass of its own.
    """
    # Refused before any per-strand work.
    if word.strands > MAX_STRANDS:
        raise BoundError(f"{word.strands} strands exceeds the bound {MAX_STRANDS}")
    d = word.sing_count
    if d > _MAX_GRADE:
        raise BoundError(f"{d} singular crossings exceeds the bound {_MAX_GRADE}")
    if run is None:
        run = _Pass(ring, {})
    n, letters, delta_pow = _simplify(word.strands, word.letters)
    if d:
        letters = _cheapest_rotation(n, letters)
    identity = sum(k << _WIDTH * k for k in range(n))
    state = {identity << _OW | _ZERO: 1}
    for kind, i in letters:
        state = run.act(state, kind, i)
    run.tabulate(state, n)
    sums = run.contract(state, d + 1)
    if delta_pow:
        factor = _pack(ring.delta_pow(delta_pow))
        sums = [_canonical(_times(s.items(), factor), ring.p) for s in sums]
    return sums


def _pack(poly: LaurentPoly) -> list[tuple[int, int]]:
    """The terms of ``poly`` as (packed shift, coefficient) pairs."""
    return [((e_t << _F) + e_x, c) for (e_t, e_x), c in poly.terms.items()]


def _decode(ring: Ring, packed: dict) -> LaurentPoly:
    """A canonical {packed exponents: c} dict as a value of ``ring``."""
    mask = (1 << _F) - 1
    return LaurentPoly._raw(ring, {((e >> _F) - _BIAS, (e & mask) - _BIAS): c for e, c in packed.items()})


def _times(terms, shifts: list, acc: dict | None = None) -> dict:
    """Packed (exponents, c) terms times (packed shift, coefficient) pairs, unreduced.

    The product is added into ``acc``, a new dict by default.  ``terms``
    is read once per shift, so it must be a dict view, not an iterator.
    """
    if acc is None:
        acc = {}
    get = acc.get
    for s, f in shifts:
        for e, c in terms:
            key = e + s
            acc[key] = get(key, 0) + c * f
    return acc


class _Pass:
    """Skein steps, a trace table and a count of the terms produced against a bound.

    One call has one: a ``homfly`` or ``weight_sums`` call, bounded by
    MAX_WORK, or all 2^d passes of one ``eval_vector`` call, bounded by
    ``skein.MAX_CUBE_WORK`` together.
    """

    __slots__ = ("p", "steps", "delta", "table", "work", "limit", "refusal")

    def __init__(self, ring: Ring, table: dict, limit: int | None = None, what: str = "the Hecke pass exceeds"):
        p = self.p = ring.p
        # As ``_pack`` would give them: t's packed shift (t folds to 1 in
        # conway) and -1 as a residue over GF(p).
        t = 0 if ring.conway else 1 << _F
        minus = p - 1 if p else -1
        # The skein steps: smoothing and switching a positive crossing,
        # t x and t^2, then a negative one, -t^(-1) x and t^(-2).
        self.steps = ((t + 1, 1), (2 * t, 1), (1 - t, minus), (-2 * t, 1))
        # delta = t^(-1) x^(-1) - t x^(-1), which is 0 in conway.
        self.delta = [(-t - 1, 1), (t - 1, minus)] if t else []
        self.table = table
        self.work = 0
        self.limit = MAX_WORK if limit is None else limit
        self.refusal = f"{what} the bound of {self.limit} terms"

    def act(self, state: dict, kind: int, i: int) -> dict:
        """The state times g_i (POS), g_i^(-1) (NEG) or 1 + Y g_i^(-1) (SING)."""
        pos = kind == POS
        # The smoothing stays at T_w and the switch moves to T_v.
        (ms, mc), (ns, nc) = self.steps[:2] if pos else self.steps[2:]
        lo = _OW + _WIDTH * (i - 1)
        hi = lo + _WIDTH
        move = (1 << lo) - (1 << hi)
        # A singular letter keeps the state and adds Y g_i^(-1) times it.
        if kind == SING:
            out, lift = {key: c for key, c in state.items() if c}, _ONE_G
        else:
            out, lift = {}, 0
        get = out.get
        for key, c in state.items():
            if not c:
                continue
            key += lift
            rise = (key >> hi & _DIGIT) - (key >> lo & _DIGIT)  # w(i+1) - w(i)
            if (rise > 0) == pos:
                # g_i lengthens w, or g_i^(-1) shortens it: a plain move to T_v.
                key += rise * move
                out[key] = get(key, 0) + c
            else:
                other = key + rise * move + ns
                key += ms
                out[key] = get(key, 0) + c * mc
                out[other] = get(other, 0) + c * nc
        self.work += len(out)
        if self.work > self.limit:
            raise BoundError(self.refusal)
        # Over the integers a zero may stay until it is read; every reader
        # skips it.  GF(p) reduces once per letter.
        return _canonical(out, self.p) if self.p else out

    def contract(self, state: dict, parts: int) -> list[dict]:
        """Sum of c t^e_t x^e_x Y^g tau(T_w) over the state, split by g; each w is tabulated.

        Returns ``parts`` canonical {packed exponents: c} dicts, the g-th
        holding the terms whose grade field (the power of Y, or the fill's
        label) is g.
        """
        table = self.table
        acc: dict = {}
        get = acc.get
        for key, c in state.items():
            if not c:
                continue
            base = (key & _LOW) - _ZERO
            for s, f in table[key >> _OW]:
                k = base + s
                acc[k] = get(k, 0) + c * f
        p = self.p
        og, exps = _OG, _EXPS
        split: list[dict] = [{} for _ in range(parts)]
        for k, c in acc.items():
            if c := c % p if p else c:
                split[k >> og][k & exps] = c
        return split

    def tabulate(self, state: dict, n: int) -> None:
        """Put the Ocneanu trace of each T_w of the state, w in S_n, in the table.

        The trace is normalized so the one-strand closure is 1.  Missing
        permutations are expanded one strand level at a time, each
        labelled by its index in the grade field, which is 0 in every
        expansion and which ``act`` never reads.  Those that take the
        same letters share one ``act`` per letter, and one ``contract``
        per level (per chunk of at most _LABELS) gives all the level's
        values, split by label.  Values are filled in from one strand
        up, so no call nests per strand.
        """
        table = self.table
        levels = []
        todo = {key >> _OW for key, c in state.items() if c}
        while n > 1 and todo:
            missing = [v for v in todo if v not in table]
            chunks = [
                (chunk, self._expand(chunk, n))
                for chunk in (missing[at : at + _LABELS] for at in range(0, len(missing), _LABELS))
            ]
            # The expansions multiply by g_i only, whose steps have
            # positive coefficients, so they hold no zero.
            todo = {key >> _OW for _, expanded in chunks for key in expanded}
            levels.append(chunks)
            n -= 1
        for v in todo:  # the identity of S_1
            table[v] = {_ZERO: 1}.items()
        for chunks in reversed(levels):
            for chunk, expanded in chunks:
                table.update(zip(chunk, [v.items() for v in self.contract(expanded, len(chunk))]))

    def _expand(self, chunk: list, n: int) -> dict:
        """The trace expansions of the permutations of ``chunk``, in S_n, as one state labelled by index."""
        groups: dict = {}
        for label, v in enumerate(chunk):
            # v = u s_(n-1) ... s_(k+1), with n - 1 at (0-based) position k.
            k = n - 1
            while v >> _WIDTH * k & _DIGIT != n - 1:
                k -= 1
            low = _WIDTH * k
            u = (v & ((1 << low) - 1)) | (v >> (low + _WIDTH)) << low
            root = u << _OW | label << _OG | _ZERO
            group = groups.setdefault(k, {})
            # tau_n(T_v) = tau_(n-1)(T_u g_(n-2) ... g_(k+1)), which is
            # delta tau_(n-1)(T_u) when v fixes n (k = n - 1, no g).
            if k == n - 1:
                for s, c in self.delta:
                    group[root + s] = c
            else:
                group[root] = 1
        expanded: dict = {}
        for k, group in groups.items():
            for i in range(n - 2, k, -1):
                group = self.act(group, POS, i)
            expanded.update(group)
        return expanded


# -- word simplification ----------------------------------------------


def _simplify(n: int, letters: tuple) -> tuple[int, tuple, int]:
    """Exact closure-preserving shrinking; returns (strands, letters, delta_pow).

    Letters two or more indices apart commute, singular ones included
    (Baez 1992, Birman 1993), so each round reduces the word up to that
    commutation.  A classical letter cancels the latest kept letter on
    its own or a neighbouring index when that letter is its inverse:
    every letter between sits two or more indices away and commutes with
    both.  One stack of kept positions per index makes that O(1) a
    letter.  The closure then cancels across the seam the first letter
    on an index against the last one, when no letter before the first or
    after the last sits on that index or a neighbour.  From the letter
    counts it drops every free strand in one renumbering and finds a
    kink on the top or bottom strand; removing a kink starts the next
    round unless a round could change nothing.  Singular letters block
    their index and both neighbours, never cancel and are never kinks,
    so the value of every resolution is kept.
    """
    word = letters
    delta_pow = 0
    while True:
        # Reduction: top[i] and first[i] are the positions in ``kept`` of
        # the latest and the earliest letter kept on index i (top[i] is -1,
        # which never blocks, when there is none), and below[p] the one
        # kept under p on its index.
        top = [-1] * (n + 1)
        first = [0] * (n + 1)
        count = [0] * (n + 1)
        below: list = []
        kept: list = []
        for letter in word:
            kind, i = letter
            p = top[i]
            if kind and p > top[i - 1] and p > top[i + 1] and kept[p][0] == -kind:
                top[i] = below[p]
                kept[p] = None
                count[i] -= 1
            else:
                if p < 0:
                    first[i] = len(kept)
                below.append(p)
                top[i] = len(kept)
                kept.append(letter)
                count[i] += 1

        # Across the seam, over the count[i] letters from first[i] to
        # last[i], with above[p] the letter kept over p on its index.  A
        # cancellation there can free only its own index and the two
        # neighbours for the next.
        last, above = top, [0] * len(kept)
        for p, q in enumerate(below):
            if q >= 0 and kept[p]:
                above[q] = p
        todo = [i for i in range(1, n) if count[i] > 1]
        while todo:
            i = todo.pop()
            if count[i] < 2:
                continue
            f, l = first[i], last[i]
            kind = kept[f][0]
            if not kind or kept[l][0] != -kind:
                continue
            for j in (i - 1, i + 1):
                if count[j] and (first[j] < f or last[j] > l):
                    break
            else:
                kept[f] = kept[l] = None
                first[i], last[i] = above[f], below[l]
                count[i] -= 2
                todo += (i - 1, i, i + 1)
        word = [letter for letter in kept if letter]
        if not word:
            return 1, (), delta_pow + n - 1

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
        # strand.  It blocked only the new edge index, so unless that
        # index holds no letter (a free strand) or two or more, a new
        # round would change nothing.
        while True:
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
            del count[edge]
            n -= 1
            if count[1 if edge == 1 else n - 1] != 1:
                break


def _cheapest_rotation(n: int, letters: tuple) -> tuple:
    """The rotation of a closed word with singular letters that the pass should start at.

    The candidates are the word itself and each rotation starting just
    after a singular letter.  A candidate's score follows one
    permutation from the identity: a singular letter, g_i at a descent
    or g_i^(-1) at an ascent splits a term in two and doubles the
    estimated support, any other letter moves the permutation to w s_i,
    and the score adds the estimate after each letter.  Scoring a
    candidate stops once it reaches the best score so far, and ties go
    to the earliest start.  After ``_simplify`` every strand carries a
    letter, so the d + 1 candidates cost O(d L) for L letters.
    """
    size = len(letters)
    starts = [q + 1 for q, (kind, _) in enumerate(letters[:-1]) if kind == SING]
    if not starts:
        return letters
    loop = letters + letters
    best, best_start = float("inf"), 0
    for start in [0, *starts]:
        w = list(range(n + 1))
        estimate = 1
        score = 0
        for kind, i in loop[start : start + size]:
            if kind == SING or (w[i] > w[i + 1]) == (kind == POS):
                estimate += estimate
            else:
                w[i], w[i + 1] = w[i + 1], w[i]
            score += estimate
            if score >= best:
                break
        else:
            best, best_start = score, start
    return loop[best_start : best_start + size]
