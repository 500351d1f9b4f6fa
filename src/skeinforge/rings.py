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


def _mono_str(e_t: int, e_x: int) -> str:
    parts = []
    for sym, e in (("t", e_t), ("x", e_x)):
        if e == 0:
            continue
        if e == 1:
            parts.append(sym)
        elif e > 0:
            parts.append(f"{sym}^{e}")
        else:
            parts.append(f"{sym}^({e})")
    return " ".join(parts)


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
        keys = sorted(self.terms, key=lambda k: (-k[0], k[1]))
        pieces = []
        for k in keys:
            mono = _mono_str(*k)
            c = self.terms[k]
            pieces.append(f"{c} {mono}" if mono else str(c))
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

    No CLI path divides with it: ``LocalizedScalar`` divides by D row by
    row (``_reduce_fraction``).  It is kept as the independent reference
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
        return self._pow(self.delta, k)

    def denom_pow(self, k: int) -> LaurentPoly:
        return self._pow(self.denom, k)

    def _pow(self, base: LaurentPoly, k: int) -> LaurentPoly:
        # Square-and-multiply for k >= 0; nothing is kept between calls.
        if k < 2:
            return base if k else self.one
        half = self._pow(base * base, k >> 1)
        return half * base if k & 1 else half

    def scalar(self, num: LaurentPoly, dpow: int = 0) -> "LocalizedScalar":
        return LocalizedScalar(self, num, dpow)

    def __repr__(self) -> str:
        return f"Ring({self.name})"


def _reduce_fraction(ring: Ring, num: LaurentPoly, dpow: int) -> tuple[LaurentPoly, int]:
    """Normal form of num / D^dpow: divide D out of num while it divides exactly.

    In every mode D's top t-row is one unit monomial u: t^2 in generic
    and GF(p), -x^2 in conway, where D is a unit.  So dividing by D peels
    the numerator one t-row at a time, top down: the quotient's next row
    is the remainder's top row divided by u (a shift and a sign), and D
    times that row is subtracted from the rows below.  Once every row
    with D's t-span beneath it is peeled, D divides exactly when no row
    is left.  Nothing searches for a leading term.

    After the first division, ``_off_denom`` evaluates the quotient at two
    zeros of D before each further one; a nonzero value proves that D
    does not divide, and only a zero there (or GF(2), GF(3) or conway)
    runs the division.  The first division goes untested: the invariant's
    numerators, with or without ``--ordered``, all divide at least once,
    so a test there would only add cost.
    """
    if not num.terms:
        return ring.zero, 0
    if not dpow:
        return num, 0
    p = ring.p
    denom: dict[int, list] = {}
    for (e_t, e_x), c in ring.denom.terms.items():
        denom.setdefault(e_t, []).append((e_x, c))
    top = max(denom)
    ((top_x, top_c),) = denom.pop(top)
    # A unit of the integers is its own inverse.
    inv = pow(top_c, -1, p) if p else top_c
    lower = [(e_t - top, terms) for e_t, terms in denom.items()]
    span = top - min(denom, default=top)
    rows: dict[int, dict] = {}
    for (e_t, e_x), c in num.terms.items():
        rows.setdefault(e_t, {})[e_x] = c
    # The certificate needs 2 and 3 to be units, so not GF(2) or GF(3);
    # in conway D is a unit and always divides.
    certify = not ring.conway and (p is None or p >= 5)
    start = dpow
    while dpow:
        if certify and dpow < start and _off_denom(rows, p):
            break
        quot = _peel(rows, top, top_x, inv, lower, span, p)
        if quot is None:
            break
        rows, dpow = quot, dpow - 1
    if dpow == start:
        return num, dpow
    terms = {(e_t, e_x): c for e_t, row in rows.items() for e_x, c in row.items()}
    return LaurentPoly._raw(ring, terms), dpow


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


def _peel(
    rows: dict, top: int, top_x: int, inv: int, lower: list, span: int, p: int | None
) -> dict | None:
    """The t-rows of rows / D, top down, or None when D does not divide."""
    low = min(rows)
    quot: dict[int, dict] = {}
    for e_t in range(max(rows), low - 1, -1):
        # The remainder's row e_t: the numerator's, less D times the
        # quotient rows already found.
        row = dict(rows.get(e_t, ()))
        get = row.get
        for shift, terms in lower:
            q_row = quot.get(e_t - top - shift)
            if q_row:
                for e_x, c in q_row.items():
                    for f_x, f in terms:
                        key = e_x + f_x
                        row[key] = get(key, 0) - c * f
        if not row or not (row := _canonical(row, p)):
            continue
        if e_t < low + span:
            return None
        quot[e_t - top] = {e_x - top_x: c * inv % p if p else c * inv for e_x, c in row.items()}
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
