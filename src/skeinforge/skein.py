"""Coordinates of singular links and the two-variable polynomial invariant.

Resolving each singular crossing of a link both ways (smoothing or
negative crossing) yields 2^d classical closures.  Their polynomial
values form a vector p related to the link's coordinates a in the basis
indexed by {0,1}^d through a Kronecker power of the fixed 2x2 matrix

    M = [[delta, 1], [1, delta]],      det M = D / x^2,

so a is recovered by applying M^(-1) along each of the d tensor axes.
Since M^(-1) = (1/D) [[A, B], [B, A]] with A = x(t^(-1) - t) and
B = -x^2, the axes run on plain Laurent numerators and every coordinate
is one numerator over D^d, put in normal form once at the end.
Coordinates live in the localization at D; no other denominators ever
appear.

Summing coordinates over patterns with d - j zeros and j ones projects
onto the coefficient of X^(d-j) Y^j of the commutative polynomial
invariant.  That sum never needs the 2^d coordinates: M^(-1) tensored d
times commutes with permuting the tensor factors, so the projection
sees the values only through the weight sums S_w = sum of p_eps over
|eps| = w, and

    coefficient of X^(d-j) Y^j = D^(-d) sum_w [z^j] (A + B z)^(d-w) (B + A z)^w S_w.

This is exact.  Over D^d, the coordinate at eta receives p_eps times
the product over k of A where eta_k = eps_k and B where they differ.
Marking each one bit of eta with z, these products summed over all eta
give (A + B z) for each zero bit of eps and (B + A z) for each one bit,
so the z^j coefficient is their sum over the coordinates of weight j.
Only the grouping of exact sums changes, so the result is the
projection of the solved coordinates, term for term.  ``invariant``
computes the polynomial this way, with or without ``--ordered``, and
takes the weight sums from the engine's graded pass
(``engine.weight_sums``), which never forms the 2^d resolutions.
Expanding both binomials, [z^j] of row w is an integer combination of
the d + 1 products A^a B^(d-a), so the kernel is integer binomials
(``_weight_kernel``) and the sum runs on flat integer terms: for each j,
sum_a A^a B^(d-a) T_a by Horner in A, with T_a an integer combination
of the S_w and B a monomial.
``eval_vector`` lists the resolution values for ``--ordered``;
``project_unordered(solve_coordinates(...))`` is kept only as the
reference that the tests and the check suites compare against.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from .braid import OrderedSingularLink, all_patterns, resolve_all
from .errors import BoundError
from .engine import DEFAULT_MAX_CROSSINGS, _check_strands, homfly, weight_sums
from .rings import LaurentPoly, LocalizedScalar, Ring, _canonical, _mono_str, _same_ring

__all__ = [
    "DEFAULT_MAX_SING",
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
    """Polynomial value of every full resolution, keyed by bit pattern."""
    _check_bounds(link, max_sing, max_crossings)
    table: dict = {}  # one trace table for the 2^d calls, dropped on return
    return {
        bits: homfly(resolve_all(link, bits), ring, max_crossings=max_crossings, cache=table)
        for bits in all_patterns(link.d)
    }


def _check_bounds(link: OrderedSingularLink, max_sing: int, max_crossings: int) -> None:
    if link.d > max_sing:
        raise BoundError(f"{link.d} singular crossings exceeds the bound {max_sing}")
    if len(link.word.letters) > max_crossings:
        raise BoundError(
            f"{len(link.word.letters)} letters exceeds the crossing bound {max_crossings}"
        )
    _check_strands(link.word)


def _axis_pass(vec: list, d: int, diag, off) -> None:
    # One tensor axis of ((diag, off), (off, diag)) applied in place.
    for axis in range(d):
        stride = 1 << (d - 1 - axis)
        for base in range(1 << d):
            if base & stride:
                continue
            v0, v1 = vec[base], vec[base | stride]
            vec[base] = diag * v0 + off * v1
            vec[base | stride] = off * v0 + diag * v1


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
    inverted independently on numerators, O(d 2^d) polynomial operations
    with no division, and each coordinate is put in normal form once:
    over a common D^k of the values, its denominator is D^(d + k).
    """
    if not values:
        raise ValueError("values must contain the empty pattern at least")
    d = len(next(iter(values)))
    if len(values) != 1 << d or any(
        len(bits) != d or any(b not in (0, 1) for b in bits) for bits in values
    ):
        raise ValueError(f"need all {1 << d} patterns of length {d}")
    nums, k = _numerators(ring, [values[bits] for bits in all_patterns(d)])
    _axis_pass(nums, d, ring.inv_diag, ring.inv_off)
    coords = {bits: ring.scalar(num, d + k) for bits, num in zip(all_patterns(d), nums)}
    return OrderedSkeinElement(ring, d, coords)


def apply_cube(element: OrderedSkeinElement) -> dict[tuple[int, ...], LocalizedScalar]:
    """Forward map: resolution values of an element given by coordinates."""
    ring, d = element.ring, element.d
    nums, k = _numerators(ring, [element.coefficient(bits) for bits in all_patterns(d)])
    _axis_pass(nums, d, ring.delta, ring.one)
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
    """Sum coordinates over patterns with i zeros and j ones onto X^i Y^j."""
    out: dict[tuple[int, int], LocalizedScalar] = {}
    for bits, c in element.coords.items():
        ones = sum(bits)
        key = (element.d - ones, ones)
        s = out.get(key)
        out[key] = c if s is None else s + c
    return SkeinPolynomial(element.ring, out)


def _weight_kernel(d: int) -> list[list[list[tuple[int, int]]]]:
    """Integer form of the rows [z^j] (A + B z)^(d - w) (B + A z)^w, by j and a.

    Expanding both binomials, [z^j] of row w is the sum over i of
    C(d - w, i) C(w, j - i) A^a B^(d - a) with a = d - w - 2i + j.  Entry
    [j][a] lists the pairs (w, C(d - w, i) C(w, j - i)) of that sum, so
    the rows need no ring at all.
    """
    kernel = [[[] for _ in range(d + 1)] for _ in range(d + 1)]
    for w in range(d + 1):
        for j in range(d + 1):
            for i in range(max(0, j - w), min(d - w, j) + 1):
                kernel[j][d - w - 2 * i + j].append((w, comb(d - w, i) * comb(w, j - i)))
    return kernel


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

        D^(-d) sum_w [z^j] (A + B z)^(d-w) (B + A z)^w S_w,

    where A = x(t^(-1) - t) and B = -x^2 are the entries of D M^(-1).
    The kernel is integer binomials; per j the sum runs by Horner in A
    on flat integer terms, so it costs O(d^2) products by the two-term A
    and O(d^3) integer-scaled additions of weight sums, then d + 1
    row-wise normal forms by D.  It is exact: the z^j coefficient of that
    product is the sum, over the coordinates of weight j, of the A/B
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
    sums = [weight_sum.terms.items() for weight_sum in weight_sums(link.word, ring)]
    p = ring.p
    ((b_t, b_x), b_c), = ring.inv_off.terms.items()
    diag = ring.inv_diag.terms.items()
    coeffs = {}
    for j, by_power in enumerate(_weight_kernel(d)):
        # sum_a A^a B^(d-a) T_a, T_a = sum_w n S_w, by Horner in A; B is a monomial.
        acc: dict = {}
        for a in range(d, -1, -1):
            if acc:
                prev, acc = acc, {}
                get = acc.get
                for (e_t, e_x), c in prev.items():
                    for (f_t, f_x), f in diag:
                        key = (e_t + f_t, e_x + f_x)
                        acc[key] = get(key, 0) + c * f
            k = d - a
            s_t, s_x, scale = k * b_t, k * b_x, b_c**k
            get = acc.get
            for w, n in by_power[a]:
                n *= scale
                for (e_t, e_x), c in sums[w]:
                    key = (e_t + s_t, e_x + s_x)
                    acc[key] = get(key, 0) + n * c
        num = LaurentPoly._raw(ring, _canonical(acc, p))
        coeffs[(d - j, j)] = ring.scalar(num, d)
    return SkeinPolynomial(ring, coeffs)
