"""Coordinates of singular links and the two-variable polynomial invariant.

Resolving each singular crossing of a link both ways (smoothing or
negative crossing) yields 2^d classical closures.  Their polynomial
values form a vector p related to the link's coordinates a in the basis
indexed by {0,1}^d through a Kronecker power of the fixed 2x2 matrix

    M(delta) = [[delta, 1], [1, delta]],      det M(delta) = D / x^2,

so a is recovered by applying M(delta)^(-1) along each of the d tensor
axes.  As delta^2 - 1 is a unit, that is M(delta) with delta negated:

    M(delta)^(-1) = (B / D) M(-delta),      B = -x^2,

so the solve runs ``apply_cube``'s butterfly with -delta on Laurent
numerators, and each coordinate is B^d times one numerator over D^d, put
in normal form once.  No denominator but powers of D ever appears.

Summing coordinates over patterns with d - j zeros and j ones projects
onto the coefficient of X^(d-j) Y^j of the commutative polynomial
invariant.  That sum never needs the 2^d coordinates: M(-delta)
tensored d times commutes with permuting the tensor factors, so the
projection sees the values only through the weight sums S_w = sum of
p_eps over |eps| = w, and with c = -delta

    coefficient of X^(d-j) Y^j = B^d D^(-d) sum_w [z^j] (c + z)^(d-w) (1 + c z)^w S_w.

This is exact.  Over D^d and up to B^d, the coordinate at eta receives
p_eps times the product over k of c where eta_k = eps_k and 1 where they
differ.  Marking each one bit of eta with z, these products summed over
all eta give (c + z) for each zero bit of eps and (1 + c z) for each one
bit, so the z^j coefficient is their sum over the coordinates of weight j.
Only the grouping of exact sums changes, so the result is the
projection of the solved coordinates, term for term.  ``invariant``
computes the polynomial this way, with or without ``--ordered``, and
takes the weight sums from the engine's graded pass (the packed form
of ``engine.weight_sums``), which never forms the 2^d resolutions.
The sum is one homogeneous Horner pass in v = 1 + c z over the d + 1
z-coefficients H[0..d], as flat integer terms keyed by the engine's
packed exponents (``_unordered_numerators``): for w = d down to 0, H
becomes H v plus S_w (c + z)^(d-w).  Times v, H[i] gains c H[i-1], top
down in place; the second term adds C(d-w, i) c^(d-w-i) S_w to H[i],
with the powers c^k S_w built as they are added.  That is d(d+1)
products by the two-term c, half of them on the small S_w, and
(d+1)(d+2)/2 binomial-scaled additions, with no binomial table.  Each
S_w is multiplied once by the monomial B^d, which adds a constant to
every key, and exponents are decoded once per output coefficient.
``eval_vector`` lists the resolution values for ``--ordered``;
``project_unordered(solve_coordinates(...))`` is kept only as the
reference that the tests and the check suites compare against.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import comb

from .braid import OrderedSingularLink, all_patterns, resolve_all
from .errors import BoundError
from .engine import (
    DEFAULT_MAX_CROSSINGS, _check_crossings, _decode, _pack, _packed_sums, _Pass, _times,
)
from .rings import LaurentPoly, LocalizedScalar, Ring, _canonical, _mono_str, _mul_terms, _same_ring

__all__ = [
    "DEFAULT_MAX_SING",
    "MAX_CUBE_WORK",
    "OrderedSkeinElement",
    "SkeinPolynomial",
    "eval_vector",
    "solve_coordinates",
    "apply_cube",
    "invariant_ordered",
    "star",
    "project_unordered",
    "invariant",
]

DEFAULT_MAX_SING = 10
# State terms that the 2^d resolution passes of one eval_vector call may
# produce together (engine.MAX_WORK bounds one pass).  The pinned corpora,
# the check suites and the tests peak at 157,163 (the d = 10 word; 262,431
# before the reduction cancelled across commuting letters).
MAX_CUBE_WORK = 2_750_000


class OrderedSkeinElement:
    """An element of the degree-d ordered module: coordinates per bit pattern.

    ``coords`` is sparse; missing patterns mean a zero coefficient.
    """

    __slots__ = ("ring", "d", "coords")

    def __init__(self, ring: Ring, d: int, coords: Mapping):
        clean = {}
        for bits, c in coords.items():
            bits = tuple(bits)
            if len(bits) != d or any(b not in (0, 1) for b in bits):
                raise ValueError(f"bad pattern {bits} for degree {d}")
            _same_ring(c.ring, ring)
            if c:
                clean[bits] = c
        self.ring = ring
        self.d = d
        self.coords = clean

    def coefficient(self, bits) -> LocalizedScalar:
        return self.coords.get(tuple(bits), self.ring.scalar_zero)

    def _check(self, other: "OrderedSkeinElement") -> None:
        _same_ring(self.ring, other.ring)
        if self.d != other.d:
            raise ValueError(f"degrees differ: {self.d} vs {other.d}")

    def __add__(self, other: "OrderedSkeinElement") -> "OrderedSkeinElement":
        self._check(other)
        out = dict(self.coords)
        for bits, c in other.coords.items():
            s = out.get(bits)
            out[bits] = c if s is None else s + c
        return OrderedSkeinElement(self.ring, self.d, out)

    def __sub__(self, other: "OrderedSkeinElement") -> "OrderedSkeinElement":
        self._check(other)
        return self + other.scale(-self.ring.one)

    def scale(self, factor) -> "OrderedSkeinElement":
        """Multiply every coordinate by a polynomial or localized scalar."""
        return OrderedSkeinElement(
            self.ring, self.d, {bits: c * factor for bits, c in self.coords.items()}
        )

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderedSkeinElement):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.d == other.d
            and self.coords == other.coords
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        lines = []
        for bits in sorted(self.coords):
            tag = "".join(str(b) for b in bits)
            lines.append(f"a[{tag}] = {self.coords[bits]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"OrderedSkeinElement(d={self.d}, {len(self.coords)} terms)"


class SkeinPolynomial:
    """A polynomial in the two commuting generators X and Y.

    ``coeffs`` maps (i, j) to the localized coefficient of X^i Y^j;
    missing keys are zero.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Mapping):
        clean = {}
        for key, c in coeffs.items():
            i, j = key
            if i < 0 or j < 0:
                raise ValueError(f"bad exponent pair {key}")
            _same_ring(c.ring, ring)
            if c:
                clean[(i, j)] = c
        self.ring = ring
        self.coeffs = clean

    def __add__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        _same_ring(self.ring, other.ring)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return SkeinPolynomial(self.ring, out)

    def __sub__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        _same_ring(self.ring, other.ring)
        return self + other.scale(-self.ring.one)

    def __mul__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        _same_ring(self.ring, other.ring)
        out: dict[tuple[int, int], LocalizedScalar] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                c = c1 * c2
                s = out.get(key)
                out[key] = c if s is None else s + c
        return SkeinPolynomial(self.ring, out)

    def scale(self, factor) -> "SkeinPolynomial":
        return SkeinPolynomial(
            self.ring, {key: c * factor for key, c in self.coeffs.items()}
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeinPolynomial):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        if set(self.coeffs) == {(0, 0)}:
            return str(self.coeffs[(0, 0)])
        pieces = []
        for key in sorted(self.coeffs):
            sign, body = _poly_term_str(self.coeffs[key], _basis_str(*key))
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{'+' if sign == '+' else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"SkeinPolynomial[{self}]"


def _basis_str(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("X" if i == 1 else f"X^{i}")
    if j:
        parts.append("Y" if j == 1 else f"Y^{j}")
    return " ".join(parts)


def _poly_term_str(scalar: LocalizedScalar, basis: str) -> tuple[str, str]:
    """Render one term as (sign, body); monomial coefficients stay unbracketed."""
    num = scalar.num
    if scalar.dpow == 0 and len(num.terms) == 1:
        ((e_t, e_x), c) = next(iter(num.terms.items()))
        negative = num.ring.p is None and c < 0
        mag = -c if negative else c
        parts = []
        if mag != 1 or (e_t == 0 and e_x == 0 and not basis):
            parts.append(str(mag))
        if e_t or e_x:
            parts.append(_mono_str(e_t, e_x))
        if basis:
            parts.append(basis)
        return ("-" if negative else "+", " ".join(parts))
    body = f"({scalar})"
    if basis:
        body += f" {basis}"
    return ("+", body)


# -- the resolution cube ----------------------------------------------


def eval_vector(
    link: OrderedSingularLink,
    ring: Ring,
    *,
    max_sing: int = DEFAULT_MAX_SING,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> dict[tuple[int, ...], LaurentPoly]:
    """Polynomial value of every full resolution, keyed by bit pattern.

    The 2^d passes share one trace table and one work count, so more
    than MAX_CUBE_WORK terms over all of them raise ``BoundError``.
    """
    _check_bounds(link, max_sing, max_crossings)
    run = _Pass(ring, {}, MAX_CUBE_WORK, "the resolution passes exceed")
    return {
        bits: LaurentPoly._raw(ring, _decode(_packed_sums(resolve_all(link, bits), ring, run)[0]))
        for bits in all_patterns(link.d)
    }


def _check_bounds(link: OrderedSingularLink, max_sing: int, max_crossings: int) -> None:
    if link.d > max_sing:
        raise BoundError(f"{link.d} singular crossings exceeds the bound {max_sing}")
    _check_crossings(link.word, max_crossings)


def _axis_pass(ring: Ring, nums: list, d: int, c: LaurentPoly) -> list[LaurentPoly]:
    # nums times M(c) = ((c, 1), (1, c)) tensored d times, one axis at a time;
    # each entry, the other operand plus c times its own, is reduced once.
    p, c = ring.p, c.terms
    vec = [num.terms for num in nums]
    for axis in range(d):
        stride = 1 << (d - 1 - axis)
        for base in range(1 << d):
            if base & stride:
                continue
            v0, v1 = vec[base], vec[base | stride]
            vec[base] = _canonical(_mul_terms(dict(v1), c, v0), p)
            vec[base | stride] = _canonical(_mul_terms(dict(v0), c, v1), p)
    return [LaurentPoly._raw(ring, terms) for terms in vec]


def _numerators(ring: Ring, values: list) -> tuple[list[LaurentPoly], int]:
    """Numerators of polynomials or localized scalars over one D^k, and k."""
    pairs = []
    for value in values:
        _same_ring(value.ring, ring)
        pairs.append((value, 0) if isinstance(value, LaurentPoly) else (value.num, value.dpow))
    k = max((dpow for _, dpow in pairs), default=0)
    return [num * ring.denom_pow(k - dpow) if dpow < k else num for num, dpow in pairs], k


def solve_coordinates(
    values: Mapping[tuple[int, ...], LaurentPoly | LocalizedScalar], ring: Ring
) -> OrderedSkeinElement:
    """Coordinates a with (M tensor ... tensor M) a = values.

    ``values`` must hold all 2^d patterns of one length d.  Each axis is
    inverted on numerators by M(-delta) (module docstring): O(d 2^d)
    polynomial operations with no division.  Each numerator times B^d is
    put in normal form once, over D^(d + k) for a common D^k of the values.
    """
    if not values:
        raise ValueError("values must contain the empty pattern at least")
    d = len(next(iter(values)))
    if len(values) != 1 << d or any(
        len(bits) != d or any(b not in (0, 1) for b in bits) for bits in values
    ):
        raise ValueError(f"need all {1 << d} patterns of length {d}")
    nums, k = _numerators(ring, [values[bits] for bits in all_patterns(d)])
    nums = _axis_pass(ring, nums, d, -ring.delta)
    b_pow = ring.monomial((-1) ** d, 0, 2 * d)
    coords = {bits: ring.scalar(num * b_pow, d + k) for bits, num in zip(all_patterns(d), nums)}
    return OrderedSkeinElement(ring, d, coords)


def apply_cube(element: OrderedSkeinElement) -> dict[tuple[int, ...], LocalizedScalar]:
    """Forward map: resolution values of an element given by coordinates.

    No CLI path applies it; it is the reference that checks
    ``solve_coordinates`` by mapping solved coordinates back to values,
    in the tests and in ``bench/``'s cross-check of its pinned answers.
    """
    ring, d = element.ring, element.d
    nums, k = _numerators(ring, [element.coefficient(bits) for bits in all_patterns(d)])
    nums = _axis_pass(ring, nums, d, ring.delta)
    return {bits: ring.scalar(num, k) for bits, num in zip(all_patterns(d), nums)}


# -- invariants --------------------------------------------------------


def invariant_ordered(
    link: OrderedSingularLink,
    ring: Ring,
    *,
    max_sing: int = DEFAULT_MAX_SING,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> OrderedSkeinElement:
    """Coordinates of the link in the degree-d basis; an isotopy invariant."""
    values = eval_vector(link, ring, max_sing=max_sing, max_crossings=max_crossings)
    return solve_coordinates(values, ring)


def star(a: OrderedSkeinElement, b: OrderedSkeinElement) -> OrderedSkeinElement:
    """Concatenation product: coordinate at (eps, mu) is a_eps * b_mu."""
    _same_ring(a.ring, b.ring)
    out = {}
    for bits_a, ca in a.coords.items():
        for bits_b, cb in b.coords.items():
            out[bits_a + bits_b] = ca * cb
    return OrderedSkeinElement(a.ring, a.d + b.d, out)


def project_unordered(element: OrderedSkeinElement) -> SkeinPolynomial:
    """Sum coordinates over patterns with i zeros and j ones onto X^i Y^j.

    No CLI path projects: ``invariant`` sums the weight sums instead.
    ``project_unordered(solve_coordinates(...))`` is the reference that
    the tests and the check suites compare ``invariant`` against.
    """
    out: dict[tuple[int, int], LocalizedScalar] = {}
    for bits, c in element.coords.items():
        ones = sum(bits)
        key = (element.d - ones, ones)
        s = out.get(key)
        out[key] = c if s is None else s + c
    return SkeinPolynomial(element.ring, out)


def invariant(
    link: OrderedSingularLink,
    ring: Ring,
    *,
    max_sing: int = DEFAULT_MAX_SING,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> SkeinPolynomial:
    """The polynomial invariant; independent of how singular crossings are labeled.

    Computed from the d + 1 weight sums S_w of the resolution values, with
    no 2^d solve: the coefficient of X^(d-j) Y^j is

        B^d D^(-d) sum_w [z^j] (c + z)^(d-w) (1 + c z)^w S_w,

    where c = -delta and B = -x^2, as M(delta)^(-1) = (B / D) M(-delta).
    The sum is one Horner pass in v = 1 + c z on flat integer terms keyed
    by packed exponents (``_unordered_numerators``), so it costs O(d^2)
    products by the two-term c and O(d^2) binomial-scaled additions of
    weight sums (each multiplied once by the monomial B^d), then d + 1
    row-wise normal forms by D.  It is exact: the z^j coefficient of that
    product is the sum, over the coordinates of weight j, of the c/1
    factors pattern eps of weight w sends them (see the module
    docstring), so only the grouping of exact sums differs from
    ``project_unordered(solve_coordinates(...))``.
    The weight sums come from one graded pass of the engine over the
    word, each singular letter acting as 1 + Y g_i^(-1), so no resolution
    is evaluated on its own.  The CLI prints this polynomial on both
    paths; ``--ordered`` adds the coordinates of ``invariant_ordered``.
    The projection stays as the reference that the tests compare against.
    """
    _check_bounds(link, max_sing, max_crossings)
    d = link.d
    nums = _unordered_numerators(_packed_sums(link.word, ring), ring)
    return SkeinPolynomial(ring, {
        (d - j, j): ring.scalar(LaurentPoly._raw(ring, _decode(num)), d) for j, num in enumerate(nums)
    })


def _unordered_numerators(sums: list[dict], ring: Ring) -> list[dict]:
    """B^d [z^j] sum_w (c + z)^(d - w) (1 + c z)^w S_w for j = 0..d, c = -delta.

    ``sums`` are the packed weight sums S_0..S_d; the numerators come back
    packed and canonical.  One Horner pass in v = 1 + c z, from w = d
    down: H times v (H[i] gains c H[i - 1], top down), plus
    S_w (c + z)^(d - w), whose c^k S_w are built as they are added.
    """
    d = len(sums) - 1
    b_pow = _pack(ring.monomial((-1) ** d, 0, 2 * d))
    c = _pack(-ring.delta)
    h: list[dict] = [{} for _ in range(d + 1)]
    for m in range(d + 1):  # m = d - w
        for i in range(m, 0, -1):
            _times(h[i - 1].items(), c, h[i])
        # B^d multiplies each weight sum once, as the sums are smaller
        # than the d + 1 accumulators.
        power = _times(sums[d - m].items(), b_pow)
        for i in range(m, -1, -1):
            n = comb(m, i)
            h_i = h[i]
            get = h_i.get
            for e, f in power.items():
                h_i[e] = get(e, 0) + n * f
            if i:
                power = _times(power.items(), c)
    return [_canonical(h_i, ring.p) for h_i in h]
