"""Exact coefficient arithmetic for skein computations.

Three modes cover every coefficient ring the rest of the package uses:

* ``generic``: sparse Laurent polynomials in the invertible symbols t
  and x with integer coefficients;
* ``conway``: the same with t collapsed to 1, i.e. Laurent polynomials
  in x alone;
* ``gf(p)``: coefficients reduced into the prime field GF(p).

The only division ever needed is by powers of the fixed element

    D = t^(-2) - 2 + t^2 - x^2 = (t^(-1) - t - x)(t^(-1) - t + x),

so fractions are tracked symbolically by :class:`LocalizedScalar` as a
numerator plus a power of D, and every computation stays exact.  All
values are immutable after construction and may be shared freely
between threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

__all__ = [
    "BaseRing",
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


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for anything below 3.3e24, which is far
    # beyond any modulus a caller can sanely ask for.
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


@dataclass(frozen=True)
class BaseRing:
    """Coefficient domain: the integers when ``p`` is None, else GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    def __str__(self) -> str:
        return "ZZ" if self.p is None else f"GF({self.p})"


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
    """Sparse Laurent polynomial in t and x.

    ``terms`` maps exponent pairs ``(e_t, e_x)`` to nonzero coefficients
    (reduced residues over GF(p)); the map is canonical, so equal values
    always carry identical term maps.  Instances are never mutated.
    """

    __slots__ = ("base", "terms")

    def __init__(self, base: BaseRing, terms: Mapping | Iterable = ()):
        acc: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (e_t, e_x), c in items:
            key = (e_t, e_x)
            acc[key] = acc.get(key, 0) + c
        p = base.p
        if p is None:
            clean = {k: c for k, c in acc.items() if c}
        else:
            clean = {}
            for k, c in acc.items():
                c %= p
                if c:
                    clean[k] = c
        self.base = base
        self.terms = clean

    @classmethod
    def _raw(cls, base: BaseRing, terms: dict) -> "LaurentPoly":
        # Internal fast path: terms must already be canonical.
        obj = cls.__new__(cls)
        obj.base = base
        obj.terms = terms
        return obj

    # -- predicates ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "LaurentPoly") -> None:
        if self.base is not other.base and self.base != other.base:
            raise ValueError(
                f"coefficient rings differ: {self.base} vs {other.base}"
            )

    # -- arithmetic ------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        p = self.base.p
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if p is not None:
                s %= p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LaurentPoly._raw(self.base, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        p = self.base.p
        if p is None:
            out = {k: -c for k, c in self.terms.items()}
        else:
            out = {k: p - c for k, c in self.terms.items()}
        return LaurentPoly._raw(self.base, out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not self.terms or not other.terms:
            return LaurentPoly._raw(self.base, {})
        p = self.base.p
        poly, mono = self.terms, other.terms
        if len(poly) == 1:
            poly, mono = mono, poly
        if len(mono) == 1:
            # A monomial factor shifts the exponents and scales the
            # coefficients; in a field no product of units is zero.
            ((mt, mx), mc), = mono.items()
            if p is None:
                out = {(e_t + mt, e_x + mx): c * mc for (e_t, e_x), c in poly.items()}
            else:
                out = {(e_t + mt, e_x + mx): c * mc % p for (e_t, e_x), c in poly.items()}
            return LaurentPoly._raw(self.base, out)
        acc: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                acc[k] = acc.get(k, 0) + c1 * c2
        if p is None:
            out = {k: c for k, c in acc.items() if c}
        else:
            out = {}
            for k, c in acc.items():
                c %= p
                if c:
                    out[k] = c
        return LaurentPoly._raw(self.base, out)

    # -- comparison and display -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.base == other.base and self.terms == other.terms

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
    """
    a._check(b)
    if not b.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a.terms:
        return LaurentPoly._raw(a.base, {})

    def shifted(poly: LaurentPoly) -> tuple[dict, int, int]:
        mt = min(e for e, _ in poly.terms)
        mx = min(e for _, e in poly.terms)
        return {(e - mt, f - mx): c for (e, f), c in poly.terms.items()}, mt, mx

    ra, at, ax = shifted(a)
    rb, bt, bx = shifted(b)
    lead_b = max(rb)
    cb = rb[lead_b]
    p = a.base.p
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
    return LaurentPoly._raw(a.base, {(u + dt, v + dx): c for (u, v), c in quot.items()})


class Ring:
    """A computation mode: coefficient base plus the optional t = 1 collapse.

    Interns the symbols t, x and their inverses, the two-component
    unlink value delta = x^(-1)(t^(-1) - t), the localization
    denominator D, and the entries of D times the inverse of the
    resolution matrix [[delta, 1], [1, delta]]: ``inv_diag`` =
    x(t^(-1) - t) on the diagonal and ``inv_off`` = -x^2 off it, and the
    skein-step monomials of the engine: switching a positive (negative)
    crossing costs ``switch_pos`` = t^2 (``switch_neg`` = t^(-2)),
    smoothing it ``smooth_pos`` = t x (``smooth_neg`` = -t^(-1) x), which
    the engine reads as (de_t, de_x, coefficient) shifts once per call.
    Use :meth:`Ring.get` to share instances.
    """

    __slots__ = (
        "base",
        "conway",
        "key",
        "name",
        "zero",
        "one",
        "t",
        "t_inv",
        "x",
        "x_inv",
        "delta",
        "denom",
        "inv_diag",
        "inv_off",
        "switch_pos",
        "smooth_pos",
        "switch_neg",
        "smooth_neg",
        "scalar_zero",
        "scalar_one",
    )

    _registry: dict[tuple, "Ring"] = {}

    def __init__(self, base: BaseRing, conway: bool = False):
        self.base = base
        self.conway = conway
        self.key = (base.p, conway)
        if base.p is None:
            self.name = "conway" if conway else "generic"
        else:
            self.name = f"gf:{base.p}" + ("+conway" if conway else "")
        self.zero = LaurentPoly._raw(base, {})
        self.one = self.monomial(1)
        self.t = self.monomial(1, 1, 0)
        self.t_inv = self.monomial(1, -1, 0)
        self.x = self.monomial(1, 0, 1)
        self.x_inv = self.monomial(1, 0, -1)
        self.delta = self.x_inv * (self.t_inv - self.t)
        self.denom = (self.t_inv - self.t - self.x) * (self.t_inv - self.t + self.x)
        self.inv_diag = self.x * (self.t_inv - self.t)
        self.inv_off = -(self.x * self.x)
        self.switch_pos = self.t * self.t
        self.smooth_pos = self.t * self.x
        self.switch_neg = self.t_inv * self.t_inv
        self.smooth_neg = -(self.t_inv * self.x)
        self.scalar_zero = LocalizedScalar._make(self, self.zero, 0)
        self.scalar_one = LocalizedScalar._make(self, self.one, 0)

    @classmethod
    def get(cls, p: int | None = None, conway: bool = False) -> "Ring":
        key = (p, conway)
        ring = cls._registry.get(key)
        if ring is None:
            ring = cls(BaseRing(p), conway)
            cls._registry[key] = ring
        return ring

    def monomial(self, coeff: int, e_t: int = 0, e_x: int = 0) -> LaurentPoly:
        """Build coeff * t^e_t * x^e_x, folding t to 1 in conway mode."""
        if self.conway:
            e_t = 0
        return LaurentPoly(self.base, [((e_t, e_x), coeff)])

    def poly(self, terms: Mapping | Iterable) -> LaurentPoly:
        items = terms.items() if isinstance(terms, Mapping) else terms
        if self.conway:
            items = [((0, e_x), c) for (_, e_x), c in items]
        return LaurentPoly(self.base, items)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Ring({self.name})"


def _canonical(acc: dict, p: int | None) -> dict:
    """Drop zero coefficients, after reducing mod p over GF(p)."""
    return {key: r for key, c in acc.items() if (r := c % p if p else c)}


def _reduce_fraction(ring: Ring, num: LaurentPoly, dpow: int) -> tuple[LaurentPoly, int]:
    """Normal form of num / D^dpow: divide D out of num while it divides exactly.

    In every mode D's top t-row is one unit monomial u: t^2 in generic
    and GF(p), -x^2 in conway, where D is a unit.  So dividing by D peels
    the numerator one t-row at a time, top down: the quotient's next row
    is the remainder's top row divided by u (a shift and a sign), and D
    times that row is subtracted from the rows below.  Once every row
    with D's t-span beneath it is peeled, D divides exactly when no row
    is left.  Nothing searches for a leading term.
    """
    if not num.terms:
        return ring.zero, 0
    if not dpow:
        return num, 0
    p = ring.base.p
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
    start = dpow
    while dpow:
        quot = _peel(rows, top, top_x, inv, lower, span, p)
        if quot is None:
            break
        rows, dpow = quot, dpow - 1
    if dpow == start:
        return num, dpow
    terms = {(e_t, e_x): c for e_t, row in rows.items() for e_x, c in row.items()}
    return LaurentPoly._raw(ring.base, terms), dpow


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
    identical normal forms, so ``==`` is a value comparison.
    """

    __slots__ = ("ring", "num", "dpow")

    def __init__(self, ring: Ring, num: LaurentPoly, dpow: int = 0):
        if num.base != ring.base:
            raise ValueError(f"numerator base {num.base} does not match ring {ring.name}")
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

    def _check(self, other: "LocalizedScalar") -> None:
        if self.ring.key != other.ring.key:
            raise ValueError(
                f"ring modes differ: {self.ring.name} vs {other.ring.name}"
            )

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __add__(self, other: "LocalizedScalar") -> "LocalizedScalar":
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        self._check(other)
        ring = self.ring
        k = max(self.dpow, other.dpow)
        n1 = self.num * ring.denom_pow(k - self.dpow)
        n2 = other.num * ring.denom_pow(k - other.dpow)
        return LocalizedScalar(ring, n1 + n2, k)

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
        self._check(other)
        return LocalizedScalar(self.ring, self.num * other.num, self.dpow + other.dpow)

    def __rmul__(self, other) -> "LocalizedScalar":
        if isinstance(other, LaurentPoly):
            return LocalizedScalar(self.ring, self.num * other, self.dpow)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        return (
            self.ring.key == other.ring.key
            and self.dpow == other.dpow
            and self.num == other.num
        )

    __hash__ = None

    def __str__(self) -> str:
        if self.dpow == 0:
            return str(self.num)
        return f"{self.num} / D^{self.dpow}"

    def __repr__(self) -> str:
        return f"LocalizedScalar[{self}]"


def specialize(poly: LaurentPoly, target: Ring) -> LaurentPoly:
    """Apply the coefficient homomorphism into ``target``.

    Folds t to 1 when the target is a conway mode and reduces integer
    coefficients mod p when the target is a prime field.  Source
    coefficients must be integers unless the moduli already agree.
    """
    if poly.base.p is not None and poly.base.p != target.base.p:
        raise ValueError("prime-field coefficients cannot change modulus or lift back")
    return target.poly(poly.terms)


def specialize_scalar(scalar: LocalizedScalar, target: Ring) -> LocalizedScalar:
    """Specialize a localized value; the denominator maps to the target's D."""
    return LocalizedScalar(target, specialize(scalar.num, target), scalar.dpow)


GENERIC = Ring.get()
CONWAY = Ring.get(conway=True)


def gf(p: int) -> Ring:
    """The prime-field mode GF(p) with t, x kept generic."""
    return Ring.get(p)
