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
w = u s_(n-1) ... s_k, and tau_n(T_w) = tau_(n-1)(T_u g_(n-2) ... g_k):
T_u's entry times delta if k = n, as it is if k = n - 1 (Markov), and
else that product expanded with ``act``.  delta = x^(-1)(t^(-1) - t)
stays formal, one packed shift (t x)^(-1) eps with eps = 1 - t^2 (0 in
conway); trace values and sums hold no W, so the power of eps sits from
bit _OE = _OW up there.  So an entry is a pair, a packed shift and the
items of a {packed exponents: coefficient} dict, memoized by W in a
table that lives for one call (or in the caller's ``cache``, which also
keeps its ring under the key None), so it holds at most 1! + ... + n!
entries.  W determines w and its length (its largest digit is n - 1),
so permutations of different strand counts never share an entry.  The
table is filled one strand level at a time: the level's permutations
left are expanded as one state, each labelled by its index in the
grade field (0 in every expansion; ``act`` never reads it), so those
with the same k share one ``act`` per letter, and one ``contract``
gives their values.  ``contract`` splits its sum by the grade field, so
the same call gives the graded pass its weight sums and the fill its
values by label.  The pass's final ``contract`` puts eps in
(``_substitute_eps``); free strands stay one ``delta_pow`` factor.

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

from itertools import compress, count

from .braid import POS, SING, SingularBraidWord
from .errors import BoundError, PreconditionError
from .rings import LaurentPoly, Ring, _canonical, _same_ring

__all__ = ["DEFAULT_MAX_CROSSINGS", "homfly", "clear_cache"]

DEFAULT_MAX_CROSSINGS = 24
# "2048: s1" answers in about 0.1 s: each free strand costs a delta factor,
# and delta_pow writes delta^2046's 2,047 binomial terms at once.
MAX_STRANDS = 2048
# State terms that one pass (one weight_sums call) may produce, in the
# pass and in trace expansions together.  The pinned corpora and the check
# suites peak at 13,077 (the d = 10 word, 19,623 unrotated), the tests at
# 166,963 (the 12-strand d = 10 word of the shared cube budget test,
# 149,164 unrotated); the widest 24-letter words run past this within a
# fraction of a second.
MAX_WORK = 250_000

# The packed key: exponents in two biased 32-bit fields, then a 16-bit
# grade, then one 11-bit digit per strand from bit _OW up.  Trace values
# and sums hold no digits: the power of eps = 1 - t^2 sits there instead.
_F = 32
_OG = 2 * _F
_OW = _OG + 16
_OE = _OW
_WIDTH = 11
_BIAS = 1 << (_F - 1)
_ZERO = _BIAS << _F | _BIAS  # the exponents of t^0 x^0
_ONE_E = 1 << _OE
_ONE_G = 1 << _OG
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
    ring: it maps packed permutations to packed trace values, each a
    pair of a packed power of delta and the ``items()`` view of a {packed
    exponents: c} dict, which Markov moves share (views do not pickle,
    and compare equal as sets, not to lists), and keeps its ring under
    the key None.  By default each call has its own.  A table of another
    ring raises ``ValueError``.  ``bench/`` replays with one until
    ROADMAP item 1(c) retires that replay.
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
        factor = ring.delta_pow(delta_pow)
        sums = [{_ZERO + e: c for e, c in _pack(_decode(ring, s) * factor)} for s in sums]
    return sums


def _substitute_eps(packed: dict, ring: Ring) -> dict:
    """``packed`` with eps = 1 - t^2 put in, eps^j as sum_i (-1)^i C(j, i) t^(2i); zeros and residues may stay."""
    t2 = 0 if ring.conway else 2 << _F
    acc: dict = {}
    get = acc.get
    for k, c in packed.items():
        if not c:  # a contraction leaves cancelled terms
            continue
        j, e = k >> _OE, k & _ONE_E - 1
        acc[e] = get(e, 0) + c
        for i in range(j):  # rings._binomials' recurrence, inline: a generator per term costs 25 %
            c = -c * (j - i) // (i + 1)
            e += t2
            acc[e] = get(e, 0) + c
    return acc


def _pack(poly: LaurentPoly) -> list[tuple[int, int]]:
    """The terms of ``poly`` as (packed shift, coefficient) pairs."""
    return [((e_t << _F) + e_x, c) for (e_t, e_x), c in poly.terms.items()]


def _decode(ring: Ring, packed: dict) -> LaurentPoly:
    """A canonical {packed exponents: c} dict as a value of ``ring``."""
    mask = (1 << _F) - 1
    return LaurentPoly._raw(ring, {((e >> _F) - _BIAS, (e & mask) - _BIAS): c for e, c in packed.items()})


class _Box:
    """Packed dicts as Kronecker-packed integers, one signed digit per point of a shared box.

    The box is a rectangle of rows e_t, each of nx points e_x, so thin
    values (delta^n, long 2-strand words) stay thin.  A link's terms share
    the parity of e_t + e_x (u = t x, t^2, delta and B keep it); then nx is
    odd, the point's e_t nx + e_x is even, and half of it, a (nx + 1)/2 +
    b (nx - 1)/2 for a = (e_t + e_x)/2, b = (e_t - e_x)/2, is its digit.
    u and t^2 are left shifts by ``u`` and ``t2`` bits; in conway t = 1, so
    t^2 shifts by 0.  The box holds the inputs grown by ``grow`` such
    factors, and a digit, in whole 64-bit words, up to ``factor`` times the
    inputs' largest 1-norm.  GF(p) reduces when read.
    """

    def __init__(self, ring: Ring, packed: list[dict], grow: int, factor: int):
        mask = (1 << _F) - 1
        keys = [e for s in packed for e in s] or [_ZERO]
        step = self.step = 0 if ring.conway else 1  # the rows that u and t^2 move by
        half = self.half = step and len({(e >> _F) + e & 1 for e in keys}) == 1
        xs = [e & mask for e in keys]
        t_lo, x_lo = min(keys) >> _F, min(xs)
        # Every e_t nx + e_x must be even when halved.
        x_lo -= half & (t_lo + x_lo + (keys[0] >> _F) + keys[0])
        nx = self.nx = max(xs) - x_lo + grow + 1 | half
        size = self.size = ((max(keys) >> _F) - t_lo + 2 * step * grow + 1) * nx + half >> half
        bound = factor * max((sum(map(abs, s.values())) for s in packed), default=0)
        width = self.width = 8 * -(-(bound.bit_length() + 1) // 64)
        # (v + bias) ^ bias holds each signed digit of v in two's complement.
        self.bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
        self.u = 8 * width * (step * nx + 1 >> half)
        self.t2 = 8 * width * (2 * step * nx >> half)
        origin = t_lo * nx + x_lo
        self.packed, self.spots = packed, [((e >> _F) * nx + x - origin >> half) * width for e, x in zip(keys, xs)]
        self.et0, self.ex0 = t_lo - _BIAS, x_lo - _BIAS

    def encode(self) -> list[int]:
        """The integers of the packed dicts, in order."""
        width, bias, spots = self.width, self.bias, iter(self.spots)
        values = []
        for s in self.packed:
            buf = bytearray(self.size * width)
            for c, at in zip(s.values(), spots):
                buf[at : at + width] = c.to_bytes(width, "little", signed=True)
            values.append((int.from_bytes(buf, "little") ^ bias) - bias)
        return values

    def rows(self, value: int, p: int | None, sign: int = 1, m_t: int = 0, m_x: int = 0) -> dict[int, dict]:
        """sign t^m_t x^m_x times ``value``'s polynomial, as canonical t-rows {e_t: {e_x: c}}; sign is +-1.

        The nonzero digits are picked out in C, and read as words or, if wider, as bytes.
        """
        half, nx, width = self.half, self.nx, self.width
        et0, ex0 = self.et0 + self.step * m_t, self.ex0 + m_x
        words, size = width >> 3, self.size * width
        twos = (value if sign > 0 else -value) + self.bias ^ self.bias
        raw = memoryview(twos.to_bytes(size, "little"))
        # OR each digit's words into its lowest: covering w words, then 2w.
        flags, w = twos, 1
        while w < words:
            flags |= flags >> 64 * min(w, words - w)
            w *= 2
        nonzero = (raw if words == 1 else memoryview(flags.to_bytes(size, "little"))).cast("Q")[::words]
        values = compress(raw.cast("q"), nonzero) if words == 1 else (
            int.from_bytes(raw[at : at + width], "little", signed=True) for at in compress(range(0, size, width), nonzero)
        )
        rows: dict[int, dict] = {}
        last = None
        for i, c in zip(compress(count(), nonzero), values):
            if c := c % p if p else c:
                e_t, e_x = divmod(i << half, nx)
                if e_t != last:  # digits come in row order
                    last = e_t
                    row = rows[e_t + et0] = {}
                row[e_x + ex0] = c
        return rows


class _Pass:
    """Skein steps, a trace table and a count of the terms produced against a bound.

    One call has one: a ``homfly`` or ``weight_sums`` call, bounded by
    MAX_WORK, or all 2^d passes of one ``eval_vector`` call, bounded by
    ``skein.MAX_CUBE_WORK`` together.
    """

    __slots__ = ("ring", "p", "steps", "delta", "table", "work", "limit", "refusal")

    def __init__(self, ring: Ring, table: dict, limit: int | None = None, what: str = "the Hecke pass exceeds"):
        self.ring = ring
        p = self.p = ring.p
        # As ``_pack`` would give them: t's packed shift (t folds to 1 in
        # conway) and -1 as a residue over GF(p).
        t = 0 if ring.conway else 1 << _F
        minus = p - 1 if p else -1
        # The skein steps: smoothing and switching a positive crossing,
        # t x and t^2, then a negative one, -t^(-1) x and t^(-2).
        self.steps = ((t + 1, 1), (2 * t, 1), (1 - t, minus), (-2 * t, 1))
        # delta = (t x)^(-1) eps, one packed shift; None in conway, where it is 0.
        self.delta = _ONE_E - t - 1 if t else None
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

    def contract(self, state: dict, parts: int, formal: bool = False) -> list[dict]:
        """Sum of c t^e_t x^e_x Y^g tau(T_w) over the state, split by g; each w is tabulated.

        Returns ``parts`` canonical {packed exponents: c} dicts, the g-th
        holding the terms whose grade field (the power of Y, or the fill's
        label) is g.  eps = 1 - t^2 is put in unless ``formal`` (the fill's
        values keep it).
        """
        table = self.table
        acc: dict = {}
        get = acc.get
        for key, c in state.items():
            if not c:
                continue
            shift, value = table[key >> _OW]
            base = (key & _LOW) - _ZERO + shift
            for s, f in value:
                k = base + s
                acc[k] = get(k, 0) + c * f
        if self.delta and not formal:  # conway holds no eps
            acc = _substitute_eps(acc, self.ring)
        p = self.p
        og = _OG
        split: list[dict] = [{} for _ in range(parts)]
        for k, c in acc.items():
            if c := c % p if p else c:
                g = k >> og & _MAX_GRADE  # the power of eps sits above it
                split[g][k ^ g << og] = c
        return split

    def tabulate(self, state: dict, n: int) -> None:
        """Put the Ocneanu trace of each T_w of the state, w in S_n, in the table.

        The trace is normalized so the one-strand closure is 1.  Missing
        permutations are peeled one strand level at a time.  Those with
        n - 1 at position n - 1 or n - 2 take tau(T_u)'s entry times delta
        or as it is; the others are expanded, each labelled by its index
        in the grade field.  Those that take the same letters share one
        ``act`` per letter, and one ``contract`` per level (per chunk of
        at most _LABELS) gives their values, split by label.  Values are
        filled in from one strand up, so no call nests per strand.
        """
        table, delta = self.table, self.delta
        levels = []
        todo = {key >> _OW for key, c in state.items() if c}.difference(table)
        while n > 1 and todo:
            aliases, rest = [], []
            for v in todo:
                # v = u s_(n-1) ... s_(k+1), with n - 1 at (0-based) position k.
                k = n - 1
                while v >> _WIDTH * k & _DIGIT != n - 1:
                    k -= 1
                low = _WIDTH * k
                u = (v & ((1 << low) - 1)) | (v >> (low + _WIDTH)) << low
                if k < n - 2:
                    rest.append((v, u, k))
                elif k == n - 2 or delta:
                    aliases.append((v, u, delta if k == n - 1 else 0))
                else:  # delta is 0 in conway
                    table[v] = (0, {}.items())
            chunks = [
                (chunk, self._expand(chunk, n))
                for chunk in (rest[at : at + _LABELS] for at in range(0, len(rest), _LABELS))
            ]
            # The expansions multiply by g_i only, whose steps have
            # positive coefficients, so they hold no zero.
            todo = {u for _, u, _ in aliases} | {key >> _OW for _, expanded in chunks for key in expanded}
            todo = todo.difference(table)  # by lookups in the table, not a walk over it
            levels.append((aliases, chunks))
            n -= 1
        for v in todo:  # the identity of S_1
            table[v] = (0, {_ZERO: 1}.items())
        for aliases, chunks in reversed(levels):
            for v, u, shift in aliases:
                table[v] = (table[u][0] + shift, table[u][1])
            for chunk, expanded in chunks:
                values = self.contract(expanded, len(chunk), True)
                table.update((v, (0, value.items())) for (v, _, _), value in zip(chunk, values))

    def _expand(self, chunk: list, n: int) -> dict:
        """tau_(n-1)(T_u g_(n-2) ... g_(k+1)) for the (v, u, k) of ``chunk``, as one state labelled by index."""
        groups: dict = {}
        for label, (_, u, k) in enumerate(chunk):
            groups.setdefault(k, {})[u << _OW | label << _OG | _ZERO] = 1
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
