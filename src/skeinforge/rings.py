"""Exact coefficient arithmetic for skein computations.

Three modes cover every coefficient ring the rest of the package uses:

* ``generic``: sparse Laurent polynomials in the invertible symbols t
  and x with integer coefficients;
* ``conway``: the same with t collapsed to 1, i.e. Laurent polynomials
  in x alone;
* ``gf(p)``: coefficients reduced into the prime field GF(p), for a
  prime p below the bound stated on :class:`Ring`.

Each mode is one shared :class:`Ring`, and every value carries the ring
it was built in.  Arithmetic and division that mix values of different
rings raise ``ValueError``, and ``==`` between them is False, so every
value belongs to exactly one mode.  :func:`specialize` and
:func:`specialize_scalar` are the only ways to move a value from one
ring into another.

The only division ever needed is by powers of the fixed element

    D = t^(-2) - 2 + t^2 - x^2 = (t^(-1) - t - x)(t^(-1) - t + x),

so fractions are tracked symbolically by :class:`LocalizedScalar` as a
numerator plus a power of D, and every computation stays exact.  All
values are immutable after construction and may be shared freely
between threads or processes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from heapq import heapify, heappop, heappush

__all__ = [
    "LaurentPoly",
    "LocalizedScalar",
    "Ring",
    "exact_div",
    "specialize",
    "specialize_scalar",
    "GENERIC",
    "CONWAY",
    "gf",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _MR_BASES: below it the
# test is a proof, and it is itself composite.
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # Miller-Rabin to the bases above: a proof below _MR_BOUND, and
    # ``Ring`` refuses every modulus from there up.
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _canonical(acc: dict, p: int | None) -> dict:
    """Drop zero coefficients, after reducing mod p over GF(p)."""
    return {key: r for key, c in acc.items() if (r := c % p if p else c)}


def _same_ring(a: "Ring", b: "Ring") -> None:
    """Refuse to mix values of two rings; rings are shared, so this is identity."""
    if a is not b:
        raise ValueError(f"rings differ: {a.name} vs {b.name}")


def _binomials(n: int) -> Iterable[int]:
    """C(n, 0), ..., C(n, n), each from the one before: math.comb per entry is 100x slower at n = 2046."""
    c = 1
    for j in range(n + 1):
        yield c
        c = c * (n - j) // (j + 1)


def _power(sym: str, e: int) -> str:
    """The text of sym^e after a space, or "" for e = 0."""
    return "" if not e else f" {sym}" if e == 1 else f" {sym}^{e}" if e > 0 else f" {sym}^({e})"


class LaurentPoly:
    """Sparse Laurent polynomial in t and x, a value of one :class:`Ring`.

    ``ring`` is the mode the value lives in; values of different rings
    never mix (arithmetic raises ``ValueError``, ``==`` is False) and
    only :func:`specialize` moves one into another ring.  ``terms`` maps
    exponent pairs ``(e_t, e_x)`` to nonzero coefficients (reduced
    residues over GF(p), with e_t = 0 in conway mode); the map is
    canonical, so equal values always carry identical term maps: the
    constructor (which sums repeated keys and folds t to 1 in conway
    mode) and every operation end in one ``_canonical``, which reduces
    mod p and drops zeros.  Instances are never mutated.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "Ring", terms: Mapping | Iterable = ()):
        acc: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        conway = ring.conway
        for (e_t, e_x), c in items:
            key = (0, e_x) if conway else (e_t, e_x)
            acc[key] = acc.get(key, 0) + c
        self.ring = ring
        self.terms = _canonical(acc, ring.p)

    @classmethod
    def _raw(cls, ring: "Ring", terms: dict) -> "LaurentPoly":
        # Internal fast path: terms must already be canonical.
        obj = cls.__new__(cls)
        obj.ring = ring
        obj.terms = terms
        return obj

    # -- predicates ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _same_ring(self.ring, other.ring)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly._raw(self.ring, _canonical(out, self.ring.p))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        out = {k: -c for k, c in self.terms.items()}
        return LaurentPoly._raw(self.ring, _canonical(out, self.ring.p))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _same_ring(self.ring, other.ring)
        acc: dict[tuple[int, int], int] = {}
        get = acc.get
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                acc[k] = get(k, 0) + c1 * c2
        return LaurentPoly._raw(self.ring, _canonical(acc, self.ring.p))

    # -- comparison and display -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Canonical order: descending in e_t, then ascending in e_x.
        pieces = []
        last_t = t_text = None
        for (e_t, e_x), c in sorted(self.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1])):
            if e_t != last_t:
                last_t, t_text = e_t, _power("t", e_t)
            pieces.append(f"{c}{t_text}{_power('x', e_x)}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly[{self}]"


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """Return q with q*b == a, or None when no such Laurent polynomial exists.

    Works by shifting both operands into the ordinary polynomial ring
    (monomials are units, so divisibility is shift-invariant) and
    peeling leading terms under the lexicographic order on (e_t, e_x).
    The remainder's keys sit in a heap of negated keys, so each leading
    term costs O(log T); a popped key no longer in the remainder has
    cancelled since it was pushed and is skipped.

    No CLI path divides with it: normal forms divide by D row by row
    (``_scalar_of_rows``).  It is kept as the independent reference
    that the normal-form tests and ``bench/``'s kernel replay check
    against.
    """
    _same_ring(a.ring, b.ring)
    if not b.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a.terms:
        return LaurentPoly._raw(a.ring, {})

    def shifted(poly: LaurentPoly) -> tuple[dict, int, int]:
        mt = min(e for e, _ in poly.terms)
        mx = min(e for _, e in poly.terms)
        return {(e - mt, f - mx): c for (e, f), c in poly.terms.items()}, mt, mx

    ra, at, ax = shifted(a)
    rb, bt, bx = shifted(b)
    lead_b = max(rb)
    cb = rb[lead_b]
    p = a.ring.p
    inv_cb = pow(cb, -1, p) if p is not None else None
    heap = [(-u, -v) for u, v in ra]
    heapify(heap)

    quot: dict[tuple[int, int], int] = {}
    while ra:
        neg_t, neg_x = heappop(heap)
        ca = ra.get((-neg_t, -neg_x))
        if ca is None:
            continue
        e_t = -neg_t - lead_b[0]
        e_x = -neg_x - lead_b[1]
        if e_t < 0 or e_x < 0:
            return None
        if p is None:
            qc, rem = divmod(ca, cb)
            if rem:
                return None
        else:
            qc = ca * inv_cb % p
        quot[(e_t, e_x)] = qc
        for (u, v), c in rb.items():
            k = (u + e_t, v + e_x)
            s = ra.get(k)
            if s is None:
                ra[k] = -qc * c if p is None else -qc * c % p
                heappush(heap, (-k[0], -k[1]))
                continue
            s -= qc * c
            if p is not None:
                s %= p
            if s:
                ra[k] = s
            else:
                del ra[k]
    dt, dx = at - bt, ax - bx
    return LaurentPoly._raw(a.ring, {(u + dt, v + dx): c for (u, v), c in quot.items()})


class Ring:
    """A computation mode: integer or GF(p) coefficients, with or without t = 1.

    Each mode has exactly one instance: ``Ring(p, conway)``, ``GENERIC``,
    ``CONWAY`` and :func:`gf` all return the shared one, so the ring is
    the identity of every value built in it.  Values of different rings
    never mix (arithmetic raises ``ValueError``) and :func:`specialize`
    is the only way from one ring into another.  ``p`` is None for the integers, else a prime below
    psi_13 = 3317044064679887385961981, where the primality test stops
    being a proof; a composite or larger modulus raises ``ValueError``.

    Interns the symbols t, x and their inverses, the two-component
    unlink value delta = x^(-1)(t^(-1) - t), and the localization
    denominator D, which makes the resolution matrix
    M(delta) = [[delta, 1], [1, delta]] invertible as
    M(delta)^(-1) = (-x^2 / D) M(-delta).
    """

    __slots__ = (
        "p",
        "conway",
        "name",
        "zero",
        "one",
        "t",
        "t_inv",
        "x",
        "x_inv",
        "delta",
        "denom",
        "scalar_zero",
        "scalar_one",
    )

    _registry: dict[tuple, "Ring"] = {}

    def __new__(cls, p: int | None = None, conway: bool = False) -> "Ring":
        ring = cls._registry.get((p, conway))
        if ring is None:
            if p is not None and not _is_prime(p):
                raise ValueError(f"modulus must be prime, got {p}")
            if p is not None and p >= _MR_BOUND:
                # Passing the test proves nothing from here up.
                raise ValueError(f"modulus must be below {_MR_BOUND}, got {p}")
            ring = super().__new__(cls)
            ring._build(p, conway)
            # Two threads building one mode at once keep the first registered.
            ring = cls._registry.setdefault((p, conway), ring)
        return ring

    def __reduce__(self):
        # Copies and unpickled rings resolve to the shared instance.
        return Ring, (self.p, self.conway)

    def _build(self, p: int | None, conway: bool) -> None:
        self.p = p
        self.conway = conway
        if p is None:
            self.name = "conway" if conway else "generic"
        else:
            self.name = f"gf:{p}" + ("+conway" if conway else "")
        self.zero = LaurentPoly._raw(self, {})
        self.one = self.monomial(1)
        self.t = self.monomial(1, 1, 0)
        self.t_inv = self.monomial(1, -1, 0)
        self.x = self.monomial(1, 0, 1)
        self.x_inv = self.monomial(1, 0, -1)
        self.delta = self.x_inv * (self.t_inv - self.t)
        self.denom = (self.t_inv - self.t - self.x) * (self.t_inv - self.t + self.x)
        self.scalar_zero = LocalizedScalar._make(self, self.zero, 0)
        self.scalar_one = LocalizedScalar._make(self, self.one, 0)

    def monomial(self, coeff: int, e_t: int = 0, e_x: int = 0) -> LaurentPoly:
        """Build coeff * t^e_t * x^e_x, folding t to 1 in conway mode."""
        return LaurentPoly(self, [((e_t, e_x), coeff)])

    def poly(self, terms: Mapping | Iterable) -> LaurentPoly:
        return LaurentPoly(self, terms)

    def delta_pow(self, k: int) -> LaurentPoly:
        """delta^k = x^(-k) (t^(-1) - t)^k for k >= 0, one binomial term at a time."""
        return LaurentPoly(self, (((2 * j - k, -k), (-1) ** j * c) for j, c in enumerate(_binomials(k))))

    def denom_pow(self, k: int) -> LaurentPoly:
        """D^k = ((t^(-1) - t)^2 - x^2)^k for k >= 0, one binomial term at a time."""
        return LaurentPoly(self, (
            ((2 * (i + j - k), 2 * i), (-1) ** (i + j) * a * b)
            for i, a in enumerate(_binomials(k))
            for j, b in enumerate(_binomials(2 * k - 2 * i))
        ))

    def scalar(self, num: LaurentPoly, dpow: int = 0) -> "LocalizedScalar":
        return LocalizedScalar(self, num, dpow)

    def __repr__(self) -> str:
        return f"Ring({self.name})"


def _reduce_fraction(ring: Ring, num: LaurentPoly, dpow: int) -> tuple[LaurentPoly, int]:
    """Normal form of num / D^dpow, as (numerator, power of D): ``_scalar_of_rows`` on its t-rows."""
    if not dpow:
        return num, 0
    rows: dict[int, dict] = {}
    for (e_t, e_x), c in num.terms.items():
        rows.setdefault(e_t, {})[e_x] = c
    scalar = _scalar_of_rows(ring, rows, dpow)
    return scalar.num, scalar.dpow


def _scalar_of_rows(ring: Ring, rows: dict, dpow: int) -> "LocalizedScalar":
    """Normal form of canonical t-rows {e_t: {e_x: c}} over D^dpow: divide D out while it divides.

    In conway D = -x^2 is a unit, so the rows over D^dpow are
    (-1)^dpow x^(-2 dpow) times them, over D^0.  Elsewhere D's top t-row
    is t^2 with coefficient 1, so dividing by D peels the numerator one
    t-row at a time, top down (``_peel``), and nothing searches for a
    leading term.

    After the first division, ``_off_denom`` evaluates the quotient at two
    zeros of D before each further one; a nonzero value proves that D
    does not divide, and only a zero there (or GF(2) or GF(3)) runs the
    division.  The first division goes untested, as it always
    succeeds on the numerators the package reduces.  At x = t^(-1) - t
    (delta = 1) every link's value is 1, and at x = t - t^(-1)
    (delta = -1) it is (-1)^(components - 1), so T_0 = sum_w c^w S_w,
    c = -delta, vanishes on both factors of D whenever d >= 1, and the
    invariant's numerator of X^(d-j) Y^j is B^d C(d, j) c^(d-j) T_0
    modulo D.  Each ``--ordered`` coordinate is divisible the same way,
    one tensor axis at a time.
    """
    if not rows:
        return ring.scalar_zero
    p = ring.p
    if ring.conway:
        sign, shift = (-1) ** dpow, -2 * dpow
        terms = {(e_t, e_x + shift): sign * c for e_t, row in rows.items() for e_x, c in row.items()}
        return LocalizedScalar._make(ring, LaurentPoly._raw(ring, _canonical(terms, p)), 0)
    # The certificate needs 2 and 3 to be units, so not GF(2) or GF(3).
    certify = p is None or p >= 5
    start = dpow
    while dpow:
        if certify and dpow < start and _off_denom(rows, p):
            break
        quot = _peel(rows, p)
        if quot is None:
            break
        rows, dpow = quot, dpow - 1
    num = LaurentPoly._raw(ring, {(e_t, e_x): c for e_t, row in rows.items() for e_x, c in row.items()})
    return LocalizedScalar._make(ring, num, dpow)


def _off_denom(rows: dict, p: int | None) -> bool:
    """True when the t-rows prove that D does not divide them.

    At t = 2, t^(-1) - t = -3/2, so D = (t^(-1) - t - x)(t^(-1) - t + x)
    vanishes at x = 3/2 and x = -3/2.  The numerator's values there,
    times a power of 2 and of 3 that clears their denominators, are
    integers; if either is nonzero (mod p over GF(p), where 2 and 3 are
    units for p >= 5), D cannot divide.  Zero at both proves nothing.
    """
    low_t = min(rows)
    low = min(min(row) for row in rows.values())
    span = max(max(row) for row in rows.values()) - low
    # weight[e - low] is (3/2)^e times 2^(low + span) / 3^low.
    weight = [3**k << (span - k) for k in range(span + 1)]
    plus = minus = 0
    for e_t, row in rows.items():
        even = odd = 0
        for e_x, c in row.items():
            if e_x & 1:
                odd += c * weight[e_x - low]
            else:
                even += c * weight[e_x - low]
        plus += (even + odd) << (e_t - low_t)
        minus += (even - odd) << (e_t - low_t)
    if p:
        plus, minus = plus % p, minus % p
    return plus != 0 or minus != 0


# -D's t-rows below its top t^2, as (t-offset, ((e_x, c), ...)): 2 + x^2 and -1.
_D_LOWER = ((-2, ((0, 2), (2, 1))), (-4, ((0, -1),)))


def _peel(rows: dict, p: int | None) -> dict | None:
    """The t-rows of rows / D, or None when D does not divide; not for conway.

    D = t^2 - (2 + x^2) + t^(-2), so top down each nonzero remainder row
    is the quotient's row two below, and -D's lower rows (``_D_LOWER``)
    times it are added into the rows below, which are reduced mod p and
    cleared of zeros when read.
    """
    low = min(rows)
    rem: dict[int, dict] = {}
    quot: dict[int, dict] = {}
    for e_t in range(max(rows), low - 1, -1):
        row = rem.pop(e_t, None) or rows.get(e_t)
        if not row or not (row := _canonical(row, p)):
            continue
        if e_t < low + 4:
            return None
        quot[e_t - 2] = row
        for shift, terms in _D_LOWER:
            target = rem.get(e_t + shift)
            if target is None:
                target = rem[e_t + shift] = dict(rows.get(e_t + shift, ()))
            get = target.get
            for f_x, f in terms:
                for e_x, c in row.items():
                    key = e_x + f_x
                    target[key] = get(key, 0) + c * f
    return quot


class LocalizedScalar:
    """A Laurent polynomial divided by a power of the denominator D.

    Normal form: either ``dpow`` is 0 or D does not divide ``num``
    exactly, and zero is always (0, 0).  Equal values therefore have
    identical normal forms, so ``==`` is a value comparison.  ``num`` is
    always a value of ``ring``, so the numerators' own ring checks keep
    scalars of different rings from mixing.  A sum of two values or of
    many (``_sum``) puts every numerator over one D^k and reduces once.
    """

    __slots__ = ("ring", "num", "dpow")

    def __init__(self, ring: Ring, num: LaurentPoly, dpow: int = 0):
        _same_ring(num.ring, ring)
        if dpow < 0:
            raise ValueError("denominator exponent must be nonnegative")
        num, dpow = _reduce_fraction(ring, num, dpow)
        self.ring = ring
        self.num = num
        self.dpow = dpow

    @classmethod
    def _make(cls, ring: Ring, num: LaurentPoly, dpow: int) -> "LocalizedScalar":
        # Internal fast path: (num, dpow) must already be in normal form.
        obj = cls.__new__(cls)
        obj.ring = ring
        obj.num = num
        obj.dpow = dpow
        return obj

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __add__(self, other: "LocalizedScalar") -> "LocalizedScalar":
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        return _sum(self.ring, (self, other))

    def __sub__(self, other: "LocalizedScalar") -> "LocalizedScalar":
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LocalizedScalar":
        return LocalizedScalar._make(self.ring, -self.num, self.dpow)

    def __mul__(self, other) -> "LocalizedScalar":
        if isinstance(other, LaurentPoly):
            return LocalizedScalar(self.ring, self.num * other, self.dpow)
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        return LocalizedScalar(self.ring, self.num * other.num, self.dpow + other.dpow)

    # The product is commutative.
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        return self.dpow == other.dpow and self.num == other.num

    __hash__ = None

    def __str__(self) -> str:
        if self.dpow == 0:
            return str(self.num)
        return f"{self.num} / D^{self.dpow}"

    def __repr__(self) -> str:
        return f"LocalizedScalar[{self}]"


def _over_common_denom(ring: Ring, values: Iterable) -> tuple[list[LaurentPoly], int]:
    """Numerators of polynomials or localized scalars of ``ring`` over one D^k, and k."""
    pairs = []
    for value in values:
        _same_ring(value.ring, ring)
        pairs.append((value, 0) if isinstance(value, LaurentPoly) else (value.num, value.dpow))
    k = max((dpow for _, dpow in pairs), default=0)
    return [num * ring.denom_pow(k - dpow) if dpow < k else num for num, dpow in pairs], k


def _sum(ring: Ring, values: Iterable) -> LocalizedScalar:
    """The sum of polynomials or localized scalars of ``ring``, in one normal form."""
    nums, k = _over_common_denom(ring, values)
    # Each numerator is a canonical value of ``ring``, so its keys need
    # no folding: only the sum's zeros and residues do.
    acc: dict[tuple[int, int], int] = {}
    get = acc.get
    for num in nums:
        for key, c in num.terms.items():
            acc[key] = get(key, 0) + c
    return LocalizedScalar(ring, LaurentPoly._raw(ring, _canonical(acc, ring.p)), k)


def specialize(poly: LaurentPoly, target: Ring) -> LaurentPoly:
    """Apply the coefficient homomorphism from ``poly.ring`` into ``target``.

    The only way to move a value between rings.  Folds t to 1 when the
    target is a conway mode and reduces integer coefficients mod p when
    the target is a prime field.  Nothing maps back: GF(p) values keep
    their modulus and conway values cannot regain t.
    """
    source = poly.ring
    if source.p not in (None, target.p) or (source.conway and not target.conway):
        raise ValueError(f"no coefficient homomorphism from {source.name} to {target.name}")
    return LaurentPoly(target, poly.terms)


def specialize_scalar(scalar: LocalizedScalar, target: Ring) -> LocalizedScalar:
    """Specialize a localized value; the denominator maps to the target's D."""
    return LocalizedScalar(target, specialize(scalar.num, target), scalar.dpow)


GENERIC = Ring()
CONWAY = Ring(conway=True)


def gf(p: int) -> Ring:
    """The prime-field mode GF(p) with t, x kept generic."""
    return Ring(p)
