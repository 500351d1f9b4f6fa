"""Coordinates of singular links and the two-variable polynomial invariant.

Resolving each singular crossing of a link both ways (smoothing or
negative crossing) yields 2^d classical closures.  Their polynomial
values form a vector p related to the link's coordinates a in the basis
indexed by {0,1}^d through a Kronecker power of the fixed 2x2 matrix

    M(delta) = [[delta, 1], [1, delta]],      det M(delta) = D / x^2,

so a is recovered by applying M(delta)^(-1) along each of the d tensor
axes.  As delta^2 - 1 is a unit, that is M(delta) with delta negated:

    M(delta)^(-1) = (B / D) M(-delta),      B = -x^2,

so the solve runs ``apply_cube``'s butterfly with -delta.  Times t x,
M(-delta) is ((c', u), (u, c')) with u = t x and c' = t^2 - 1, so it runs
on Kronecker-packed integers (``engine._Box``; Kronecker 1882, Harvey,
J. Symbolic Comput. 44, 2009), where u and t^2 are left shifts.  Each
coordinate, B^d (t x)^(-d) = (-1)^d t^(-d) x^d times one integer over
D^d, is decoded once into t-rows for its normal form.

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
The sum, times (t x)^d, is one homogeneous Horner pass in v = u + c' z
on the packed integers of the S_w (``_unordered_numerators``): d(d+1)
products by the two-term c', each two shifts and a subtraction, and
(d+1)(d+2)/2 binomial-scaled additions.  ``--ordered`` solves the
resolution values, packed as the passes leave them.
``project_unordered(solve_coordinates(...))`` is kept only as the
reference that the tests and the check suites compare against.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import comb

from .braid import OrderedSingularLink, all_patterns, resolve_all
from .errors import BoundError
from .engine import (
    _ZERO, DEFAULT_MAX_CROSSINGS, _Box, _check_crossings, _decode, _pack, _packed_sums, _Pass,
)
from .rings import (
    LaurentPoly, LocalizedScalar, Ring, _power, _over_common_denom, _same_ring, _scalar_of_rows, _sum,
)

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
# State terms that the 2^d resolution passes of one eval_vector call may
# produce together (engine.MAX_WORK bounds one pass).  The pinned corpora,
# the check suites and the tests peak at 157,163 (the d = 10 word; 262,431
# before the reduction cancelled across commuting letters).
MAX_CUBE_WORK = 2_750_000
# Bytes of the 2^d integers of one axis pass: the d = 10 word needs
# 6,373,376 over the largest prime (3,186,688 in generic), "2: t1^14" 85,590,016.
# It counts only those integers, not the normal forms after them, so peak
# RSS runs 3-6x above it: --ordered on "2: t1^13" (raised bounds) needs
# 39.9 MB and peaks at 137 MB.
MAX_AXIS_BYTES = 1 << 26


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

    def __add__(self, other: "OrderedSkeinElement") -> "OrderedSkeinElement":
        _same_ring(self.ring, other.ring)
        if self.d != other.d:
            raise ValueError(f"degrees differ: {self.d} vs {other.d}")
        coords = _sum_by_key(self.ring, [*self.coords.items(), *other.coords.items()])
        return OrderedSkeinElement(self.ring, self.d, coords)

    def __sub__(self, other: "OrderedSkeinElement") -> "OrderedSkeinElement":
        return self + OrderedSkeinElement(other.ring, other.d, {bits: -c for bits, c in other.coords.items()})

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
        return SkeinPolynomial(self.ring, _sum_by_key(self.ring, [*self.coeffs.items(), *other.coeffs.items()]))

    def __sub__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        return self + SkeinPolynomial(other.ring, {key: -c for key, c in other.coeffs.items()})

    def __mul__(self, other: "SkeinPolynomial") -> "SkeinPolynomial":
        _same_ring(self.ring, other.ring)
        return SkeinPolynomial(self.ring, _sum_by_key(self.ring, [
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self.coeffs.items()
            for (i2, j2), c2 in other.coeffs.items()
        ]))

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


def _sum_by_key(ring: Ring, pairs: list) -> dict:
    """Sum (key, localized scalar) pairs per key, one normal form per key that repeats."""
    groups: dict = {}
    for key, c in pairs:
        groups.setdefault(key, []).append(c)
    return {key: cs[0] if len(cs) == 1 else _sum(ring, cs) for key, cs in groups.items()}


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
            parts.append((_power("t", e_t) + _power("x", e_x))[1:])
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
    No subcommand calls this (``--ordered`` keeps the values packed);
    the tests and the benchmark corpus's cross-check do.
    """
    values = _packed_values(link, ring, max_sing, max_crossings)
    return {bits: _decode(ring, v) for bits, v in zip(all_patterns(link.d), values)}


def _packed_values(link: OrderedSingularLink, ring: Ring, max_sing: int, max_crossings: int) -> list[dict]:
    """``eval_vector``'s values as canonical packed dicts, in ``all_patterns`` order."""
    _check_bounds(link, max_sing, max_crossings)
    run = _Pass(ring, {}, MAX_CUBE_WORK, "the resolution passes exceed")
    return [_packed_sums(resolve_all(link, bits), ring, run)[0] for bits in all_patterns(link.d)]


def _check_bounds(link: OrderedSingularLink, max_sing: int, max_crossings: int) -> None:
    if link.d > max_sing:
        raise BoundError(f"{link.d} singular crossings exceeds the bound {max_sing}")
    _check_crossings(link.word, max_crossings)


def _axis_pass(ring: Ring, vec: list[dict], d: int) -> tuple[_Box, list[int]]:
    """Packed vec times t x M(-delta) = ((c', u), (u, c')) tensored d times, as integers.

    Each axis at most triples the 1-norm; refused before any butterfly above MAX_AXIS_BYTES.
    """
    box = _Box(ring, vec, d, 3**d)
    if (need := box.size * box.width << d) > MAX_AXIS_BYTES:
        raise BoundError(f"the axis pass needs {need} bytes, over the bound of {MAX_AXIS_BYTES}")
    u, t2, vec = box.u, box.t2, box.encode()
    for axis in range(d):
        stride = 1 << (d - 1 - axis)
        for base in range(1 << d):
            if base & stride:
                continue
            v0, v1 = vec[base], vec[base | stride]
            vec[base] = (v0 << t2) - v0 + (v1 << u)
            vec[base | stride] = (v1 << t2) - v1 + (v0 << u)
    return box, vec


def _numerators(ring: Ring, values: list) -> tuple[list[dict], int]:
    """Packed numerators of polynomials or localized scalars over one D^k, and k."""
    nums, k = _over_common_denom(ring, values)
    return [{_ZERO + s: c for s, c in _pack(num)} for num in nums], k


def solve_coordinates(
    values: Mapping[tuple[int, ...], LaurentPoly | LocalizedScalar], ring: Ring
) -> OrderedSkeinElement:
    """Coordinates a with (M tensor ... tensor M) a = values.

    ``values`` must hold all 2^d patterns of one length d.  Each axis is
    inverted on numerators by M(-delta) (module docstring): O(d 2^d)
    polynomial operations with no division.  Each numerator times B^d is
    put in normal form once, over D^(d + k) for a common D^k of the values.
    No subcommand calls this (``invariant_ordered`` solves packed values);
    the tests, the benchmark corpus's cross-check and its replay do.
    ``tests/test_skein.py::test_cube_maps_match_the_kronecker_power``
    checks it against M(delta) tensored d times, built entry by entry.
    """
    if not values:
        raise ValueError("values must contain the empty pattern at least")
    d = len(next(iter(values)))
    if len(values) != 1 << d or any(
        len(bits) != d or any(b not in (0, 1) for b in bits) for bits in values
    ):
        raise ValueError(f"need all {1 << d} patterns of length {d}")
    nums, k = _numerators(ring, [values[bits] for bits in all_patterns(d)])
    return _solve(ring, nums, d, k)


def _solve(ring: Ring, nums: list[dict], d: int, k: int) -> OrderedSkeinElement:
    # nums: packed numerators over D^k, in all_patterns order.
    box, vec = _axis_pass(ring, nums, d)
    coords = {
        bits: _scalar_of_rows(ring, box.rows(v, ring.p, (-1) ** d, -d, d), d + k)
        for bits, v in zip(all_patterns(d), vec)
    }
    return OrderedSkeinElement(ring, d, coords)


def apply_cube(element: OrderedSkeinElement) -> dict[tuple[int, ...], LocalizedScalar]:
    """Forward map: resolution values of an element given by coordinates.

    M(delta) = -J M(-delta) J with J = diag(1, -1): the butterfly of
    ``solve_coordinates`` between sign flips of the odd patterns.  No CLI
    path applies it; it checks ``solve_coordinates`` in the tests and in
    ``bench/``'s cross-check, and both are checked independently by
    ``tests/test_skein.py::test_cube_maps_match_the_kronecker_power``.
    """
    ring, d = element.ring, element.d
    patterns = list(all_patterns(d))
    nums, k = _numerators(ring, [-element.coefficient(b) if sum(b) & 1 else element.coefficient(b) for b in patterns])
    box, vec = _axis_pass(ring, nums, d)
    return {
        bits: _scalar_of_rows(ring, box.rows(v, ring.p, (-1) ** (d + sum(bits)), -d, -d), k)
        for bits, v in zip(patterns, vec)
    }


# -- invariants --------------------------------------------------------


def invariant_ordered(
    link: OrderedSingularLink,
    ring: Ring,
    *,
    max_sing: int = DEFAULT_MAX_SING,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> OrderedSkeinElement:
    """Coordinates of the link in the degree-d basis; an isotopy invariant."""
    return _solve(ring, _packed_values(link, ring, max_sing, max_crossings), link.d, 0)


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

    The coordinates of each X^i Y^j are put over one D^k and reduced
    once.  Neither ``invariant`` nor ``homfly`` projects: ``invariant``
    sums the weight sums instead.
    ``project_unordered(solve_coordinates(...))`` is the reference that
    the tests and the check suites compare ``invariant`` against.
    """
    d = element.d
    pairs = [((d - (ones := sum(bits)), ones), c) for bits, c in element.coords.items()]
    return SkeinPolynomial(element.ring, _sum_by_key(element.ring, pairs))


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
    The sum is one Horner pass in v = 1 + c z on one Kronecker-packed
    integer per z-coefficient (``_unordered_numerators``), so it costs
    O(d^2) products by c, each two shifts and a subtraction, and O(d^2)
    additions, then d + 1 row-wise normal forms by D.  It is exact: the z^j coefficient of that
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
    return SkeinPolynomial(ring, {(d - j, j): _scalar_of_rows(ring, rows, d) for j, rows in enumerate(nums)})


def _unordered_numerators(sums: list[dict], ring: Ring) -> list[dict]:
    """B^d [z^j] sum_w (c + z)^(d - w) (1 + c z)^w S_w for j = 0..d, c = -delta, as t-rows.

    ``sums`` are the packed weight sums S_0..S_d.  Times (t x)^d, the sum
    is sum_w (c' + u z)^(d - w) (u + c' z)^w S_w with c' = t^2 - 1 and
    u = t x, on the integers of one ``engine._Box``.  One Horner pass in
    v = u + c' z, from w = d down: H[i] becomes u H[i] + c' H[i - 1], top
    down, plus S_w (c' + u z)^(d - w), whose c'^k S_w are built as they
    are added.  Each factor has 1-norm 3, which bounds the digits.
    """
    d = len(sums) - 1
    box = _Box(ring, sums, d, (d + 1) * 3**d)
    u, t2, values = box.u, box.t2, box.encode()
    h = [0] * (d + 1)
    for m in range(d + 1):  # m = d - w
        for i in range(m, 0, -1):
            g = h[i - 1]
            h[i] = (h[i] << u) + (g << t2) - g
        h[0] <<= u
        power = values[d - m]
        for i in range(m, -1, -1):
            h[i] += comb(m, i) * power << i * u
            if i:
                power = (power << t2) - power
    return [box.rows(n, ring.p, (-1) ** d, -d, d) for n in h]
