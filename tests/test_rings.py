"""Coefficient arithmetic: pinned examples plus algebraic property tests."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinforge import (
    CONWAY,
    GENERIC,
    LaurentPoly,
    LocalizedScalar,
    Ring,
    exact_div,
    gf,
    specialize,
    specialize_scalar,
)
from skeinforge import rings
from skeinforge.cli import main
from skeinforge.engine import _F, _ZERO, _Box, _pack
from skeinforge.rings import _reduce_fraction, _scalar_of_rows

# GF(2) and GF(3) are where reducing -c and sums mod p is easiest to get wrong.
MODES = (GENERIC, CONWAY, gf(2), gf(3), gf(5))


def poly_strategy(ring, max_terms=4):
    term = st.tuples(
        st.tuples(
            st.just(0) if ring.conway else st.integers(-3, 3),
            st.integers(-3, 3),
        ),
        st.integers(-9, 9),
    )
    return st.lists(term, max_size=max_terms).map(lambda items: ring.poly(items))


def any_mode_polys():
    return st.sampled_from(MODES).flatmap(
        lambda ring: st.tuples(st.just(ring), poly_strategy(ring))
    )


def mode_triples():
    return st.sampled_from(MODES).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            poly_strategy(ring),
            poly_strategy(ring),
            poly_strategy(ring),
        )
    )


# -- construction -------------------------------------------------------


def test_ring_requires_prime():
    assert gf(2).p == 2
    assert Ring(97).p == 97
    with pytest.raises(ValueError):
        gf(6)
    with pytest.raises(ValueError):
        Ring(1)
    # A refused modulus leaves nothing behind to hand out later.
    with pytest.raises(ValueError):
        Ring(6, conway=True)


def test_ring_rejects_strong_pseudoprime_to_bases_below_41():
    # 399165290221 * 798330580441 passes Miller-Rabin to every prime base
    # up to 37; base 41 makes the test deterministic below 3.3e24.
    with pytest.raises(ValueError):
        gf(318665857834031151167461)


PSI_13 = 1287836182261 * 2575672364521


def test_ring_refuses_moduli_from_psi_13_up(capsys):
    # psi_13 passes Miller-Rabin to all thirteen bases, so from it up
    # the test proves nothing and even a prime such as 2^89 - 1 is refused.
    assert PSI_13 == 3317044064679887385961981
    for p in (PSI_13, 2**89 - 1):
        with pytest.raises(ValueError):
            gf(p)
    assert main(["homfly", "--ring", f"gf:{PSI_13}", "2: s1 s1 s1"]) == 2
    assert capsys.readouterr().out == ""


def test_canonical_form_drops_zeros():
    p = LaurentPoly(GENERIC, {(0, 0): 3, (1, 0): 0})
    assert p.terms == {(0, 0): 3}
    assert p.ring is GENERIC
    q = GENERIC.poly({(2, 0): 1}) - GENERIC.poly({(2, 0): 1})
    assert q.terms == {} and q.is_zero


def test_constructor_folds_t_in_conway():
    p = LaurentPoly(CONWAY, [((1, 0), 1), ((-1, 0), 1), ((5, 2), 3)])
    assert p.terms == {(0, 0): 2, (0, 2): 3}
    assert CONWAY.monomial(2, 7, 1) == CONWAY.poly({(0, 1): 2})


def test_gf_coefficients_are_reduced():
    p = gf(5).poly({(0, 0): 7, (0, 1): -1})
    assert p.terms == {(0, 0): 2, (0, 1): 4}
    assert (gf(5).monomial(5)).is_zero


# -- pinned arithmetic ---------------------------------------------------


def test_difference_of_squares():
    r = GENERIC
    assert (r.t + r.x) * (r.t - r.x) == r.poly({(2, 0): 1, (0, 2): -1})


def test_add_zero_identity():
    p = GENERIC.poly({(1, -2): 4, (0, 0): -1})
    assert p + GENERIC.zero == p


def test_denominator_expansion():
    r = GENERIC
    product = (r.t_inv - r.t - r.x) * (r.t_inv - r.t + r.x)
    assert product == r.poly({(-2, 0): 1, (0, 0): -2, (2, 0): 1, (0, 2): -1})
    assert product == r.denom


def test_canonical_strings():
    r = GENERIC
    assert str(r.zero) == "0"
    assert str(r.one) == "1"
    assert str(r.poly({(4, 0): -1, (2, 0): 2, (2, 2): 1})) == "-1 t^4 + 2 t^2 + 1 t^2 x^2"
    assert str(r.denom) == "1 t^2 + -2 + -1 x^2 + 1 t^(-2)"
    assert str(r.delta) == "-1 t x^(-1) + 1 t^(-1) x^(-1)"


# -- exact division ------------------------------------------------------


def test_exact_div_pinned():
    r = GENERIC
    t, x = r.t, r.x
    assert exact_div(t * t - x * x, t - x) == t + x
    assert exact_div(r.denom, r.denom) == r.one
    assert exact_div(t + x, x) == r.poly({(1, -1): 1, (0, 0): 1})


def test_exact_div_not_divisible():
    r = GENERIC
    assert exact_div(r.t + r.one, r.t - r.one) is None
    assert exact_div(r.monomial(2) * r.t, r.monomial(3)) is None


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(GENERIC.one, GENERIC.zero)


def test_base_mismatch_rejected():
    with pytest.raises(ValueError):
        GENERIC.one + gf(5).one
    with pytest.raises(ValueError):
        exact_div(GENERIC.one, gf(5).one)


def test_values_of_different_modes_never_mix():
    # Generic and conway share the integers as coefficients, but they are
    # different rings: every mixed operation refuses.
    with pytest.raises(ValueError):
        GENERIC.t + CONWAY.one
    with pytest.raises(ValueError):
        GENERIC.x * CONWAY.x
    with pytest.raises(ValueError):
        exact_div(GENERIC.one, CONWAY.one)
    with pytest.raises(ValueError):
        CONWAY.scalar(GENERIC.t * GENERIC.x)
    with pytest.raises(ValueError):
        GENERIC.scalar_one * CONWAY.scalar_one
    assert GENERIC.x != CONWAY.x
    assert GENERIC.scalar_one != CONWAY.scalar_one


@settings(max_examples=150, deadline=None)
@given(mode_triples())
def test_exact_div_roundtrip(data):
    ring, a, b, _ = data
    if b.is_zero:
        return
    assert exact_div(a * b, b) == a


@pytest.mark.parametrize("ring", (GENERIC, gf(5)), ids=lambda r: r.name)
def test_exact_div_large_numerators(ring):
    # The round trip above draws at most four terms; the remainder heap
    # only matters for long numerators.
    rng = random.Random(606)
    n = ring.poly(
        ((rng.randint(-20, 20), rng.randint(-20, 20)), rng.randint(-9, 9))
        for _ in range(500)
    )
    assert len(n.terms) >= 300
    for k in (1, 2, 3):
        multiple = n * ring.denom_pow(k)
        assert exact_div(multiple, ring.denom) == n * ring.denom_pow(k - 1)
        assert exact_div(multiple + ring.one, ring.denom) is None


def _reduce_by_exact_div(ring, num, dpow):
    # The normal form as computed before the row-wise peel: one exact_div
    # by D per step while it divides.
    if not num.terms:
        return ring.zero, 0
    while dpow > 0:
        q = exact_div(num, ring.denom)
        if q is None:
            break
        num, dpow = q, dpow - 1
    return num, dpow


def normal_form_cases():
    # n D^k times a monomial divides k times; n D^k + 1 usually does not.
    return st.sampled_from(MODES).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            poly_strategy(ring, max_terms=6),
            st.integers(0, 6),
            st.integers(0, 3),
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            st.booleans(),
        )
    )


@settings(max_examples=300, deadline=None)
@given(normal_form_cases())
def test_row_wise_normal_form_matches_exact_div(data):
    ring, n, k, extra, (e_t, e_x), divisible = data
    num = n * ring.denom_pow(k)
    num = num * ring.monomial(1, e_t, e_x) if divisible else num + ring.one
    for dpow in (0, k, k + extra):
        assert _reduce_fraction(ring, num, dpow) == _reduce_by_exact_div(ring, num, dpow)


@pytest.mark.parametrize("ring", MODES, ids=lambda r: r.name)
def test_row_wise_normal_form_of_zero_and_powers_of_d(ring):
    for k in range(7):
        assert _reduce_fraction(ring, ring.zero, k) == (ring.zero, 0)
        assert _reduce_fraction(ring, ring.denom_pow(k), k) == (ring.one, 0)
        assert _reduce_fraction(ring, ring.denom_pow(k), k + 2) == _reduce_by_exact_div(
            ring, ring.denom_pow(k), k + 2
        )


def test_normal_form_peels_where_the_certificate_vanishes():
    # t - 2 vanishes at both zeros of D with t = 2 and is not divisible by
    # D: after the first division the evaluation proves nothing, so the
    # peel decides.
    for ring in (GENERIC, gf(5), gf(7)):
        num = ring.t - ring.monomial(2)
        assert _reduce_fraction(ring, num * ring.denom, 2) == (num, 1)
        assert ring.scalar(num, 1).dpow == 1


def test_certificate_replaces_the_failing_division(monkeypatch):
    # (t + 1) D over D^3: one division, then t + 1 is nonzero at the zeros
    # of D, which settles it in GENERIC and GF(5); GF(3) has no such
    # points and tries the second division.
    calls = []
    peel = rings._peel
    monkeypatch.setattr(rings, "_peel", lambda *args: calls.append(1) or peel(*args))
    for ring, peels in ((GENERIC, 1), (gf(5), 1), (gf(3), 2)):
        calls.clear()
        num = ring.t + ring.one
        assert _reduce_fraction(ring, num * ring.denom, 3) == (num, 2)
        assert len(calls) == peels, ring


@settings(max_examples=200, deadline=None)
@given(normal_form_cases())
def test_normal_form_with_a_factor_vanishing_on_d(data):
    ring, n, k, extra, (e_t, e_x), _ = data
    num = n * ring.denom_pow(k) * (ring.t - ring.monomial(2)) * ring.monomial(1, e_t, e_x)
    for dpow in (k, k + extra + 1):
        assert _reduce_fraction(ring, num, dpow) == _reduce_by_exact_div(ring, num, dpow)


@settings(max_examples=300, deadline=None)
@given(
    normal_form_cases(), st.integers(-6, 6), st.sampled_from((1, -1)), st.integers(0, 3),
    st.sampled_from((1, 1 << 64, 1 << 128)),
)
def test_normal_form_of_packed_rows_matches_exact_div(data, shift, sign, lift, factor):
    # The integers the kernel and the solve leave, with unreduced residues
    # and zeros, read from their box into t-rows times sign x^shift, with
    # digits of one, two or three words.
    ring, n, k, extra, (e_t, e_x), divisible = data
    num = n * ring.denom_pow(k)
    num = num * ring.monomial(1, e_t, e_x) if divisible else num + ring.one
    packed = {_ZERO + s: c + lift * (ring.p or 0) for s, c in _pack(num)}
    packed[_ZERO + (99 << _F)] = lift * (ring.p or 0)
    box = _Box(ring, [packed], 0, factor)
    (value,) = box.encode()
    expected = num * ring.monomial(sign, 0, shift)
    for dpow in (0, k, k + extra):
        scalar = _scalar_of_rows(ring, box.rows(value, ring.p, sign, 0, shift), dpow)
        assert (scalar.num, scalar.dpow) == _reduce_by_exact_div(ring, expected, dpow)


# -- ring axioms ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(any_mode_polys(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-9, 9))
def test_monomial_product_shifts_exponents(data, e_t, e_x, c):
    ring, a = data
    m = ring.monomial(c, e_t, e_x)
    if m.is_zero:
        return
    ((mt, mx), mc), = m.terms.items()
    expected = LaurentPoly(
        ring, [((at + mt, ax + mx), ac * mc) for (at, ax), ac in a.terms.items()]
    )
    assert a * m == expected
    assert m * a == expected


@settings(max_examples=150, deadline=None)
@given(mode_triples())
def test_ring_axioms(data):
    ring, a, b, c = data
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ring.one == a
    assert a + ring.zero == a
    assert a - a == ring.zero
    assert -(-a) == a
    assert (-a) * b == -(a * b)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODES), st.integers(0, 40), st.integers(0, 40))
def test_powers_are_multiplicative(ring, j, k):
    # delta_pow and denom_pow write their binomial terms afresh on every call.
    assert ring.delta_pow(j + k) == ring.delta_pow(j) * ring.delta_pow(k)
    assert ring.denom_pow(k + 1) == ring.denom_pow(k) * ring.denom
    assert ring.delta_pow(0) == ring.denom_pow(0) == ring.one


@pytest.mark.parametrize("ring", MODES, ids=lambda ring: ring.name)
def test_powers_are_the_repeated_products(ring):
    # The binomial terms against the k-fold products of delta and D; in
    # conway delta = 0, so delta^k = 0 for k >= 1.
    delta_k = denom_k = ring.one
    for k in range(13):
        assert ring.delta_pow(k) == delta_k, k
        assert ring.denom_pow(k) == denom_k, k
        delta_k, denom_k = delta_k * ring.delta, denom_k * ring.denom


# -- localized scalars ---------------------------------------------------


def test_localized_pinned():
    r = GENERIC
    s = r.scalar(r.denom, 1) + r.scalar(r.zero, 0)
    assert (s.num, s.dpow) == (r.one, 0)
    prod = r.scalar(r.x * r.x, 1) * r.scalar(r.denom, 0)
    assert (prod.num, prod.dpow) == (r.x * r.x, 0)
    assert str(r.scalar(r.x, 2)) == "1 x / D^2"
    assert str(r.scalar(r.one)) == "1"


def test_localized_zero_normal_form():
    r = GENERIC
    z = r.scalar(r.zero, 3)
    assert (z.num, z.dpow) == (r.zero, 0)
    assert not z and z.is_zero
    assert not r.scalar(r.x, 2).is_zero


@settings(max_examples=150, deadline=None)
@given(mode_triples(), st.integers(0, 2), st.integers(0, 2))
def test_localized_arith_properties(data, k1, k2):
    ring, a, b, c = data
    s1 = ring.scalar(a, k1)
    s2 = ring.scalar(b, k2)
    s3 = ring.scalar(c, 1)
    assert s1 * s2 == s2 * s1
    assert s1 + s2 == s2 + s1
    assert (s1 + s2) + s3 == s1 + (s2 + s3)
    assert s1 * (s2 + s3) == s1 * s2 + s1 * s3
    assert s1 - s1 == ring.scalar_zero


def scalar_lists():
    # Numerators n D^j over D^dpow, so the drawn scalars' normal forms
    # have mixed powers; ``close`` appends the scalar that makes the sum
    # m, whose D^k then divides out entirely.
    return st.sampled_from((GENERIC, CONWAY, gf(5))).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.lists(
                st.tuples(poly_strategy(ring), st.integers(0, 2), st.integers(0, 4)), max_size=6
            ),
            st.booleans(),
            poly_strategy(ring),
        )
    )


@settings(max_examples=200, deadline=None)
@given(scalar_lists())
def test_sum_matches_numerators_reduced_by_exact_div(data):
    ring, drawn, close, m = data
    scalars = [ring.scalar(n * ring.denom_pow(j), dpow) for n, j, dpow in drawn]

    def over_common_power(values):
        k = max((s.dpow for s in values), default=0)
        total = ring.zero
        for s in values:
            total = total + s.num * ring.denom_pow(k - s.dpow)
        return total, k

    if close:
        total, k = over_common_power(scalars)
        scalars.append(ring.scalar(m * ring.denom_pow(k) - total, k))
    total, k = over_common_power(scalars)
    expected = _reduce_by_exact_div(ring, total, k)
    if close:
        assert expected == (m, 0)
    got = rings._sum(ring, scalars)
    assert (got.num, got.dpow) == expected
    # Adding one value at a time, with a normal form per addition, agrees.
    assert sum(scalars, ring.scalar_zero) == got


@settings(max_examples=150, deadline=None)
@given(mode_triples(), st.integers(0, 3), st.integers(0, 3))
def test_localized_equality_matches_cross_multiplication(data, k1, k2):
    ring, a, b, _ = data
    s1 = ring.scalar(a, k1)
    s2 = ring.scalar(b, k2)
    cross = a * ring.denom_pow(k2) == b * ring.denom_pow(k1)
    assert (s1 == s2) == cross


@settings(max_examples=100, deadline=None)
@given(poly_strategy(CONWAY), st.integers(0, 4))
def test_conway_scalars_clear_denominators(num, k):
    # At t = 1 the denominator becomes -x^2, a unit, so normalization
    # always reaches dpow = 0.
    assert CONWAY.denom == CONWAY.poly({(0, 2): -1})
    s = CONWAY.scalar(num, k)
    assert s.dpow == 0


# -- specialization ------------------------------------------------------


def test_specialize_pinned():
    assert specialize(GENERIC.denom, CONWAY) == CONWAY.poly({(0, 2): -1})
    assert specialize(GENERIC.one, CONWAY) == CONWAY.one
    assert specialize(GENERIC.one, gf(7)) == gf(7).one
    assert specialize(GENERIC.monomial(5) + GENERIC.x, gf(5)) == gf(5).x


def test_specialize_rejects_field_changes():
    with pytest.raises(ValueError):
        specialize(gf(5).one, GENERIC)
    with pytest.raises(ValueError):
        specialize(gf(5).one, gf(7))


def test_specialize_cannot_restore_t():
    with pytest.raises(ValueError):
        specialize(CONWAY.x, GENERIC)
    with pytest.raises(ValueError):
        specialize_scalar(CONWAY.scalar_one, GENERIC)
    assert specialize(GENERIC.t, CONWAY) == CONWAY.one
    assert specialize(CONWAY.x, CONWAY) == CONWAY.x


@settings(max_examples=100, deadline=None)
@given(poly_strategy(GENERIC), poly_strategy(GENERIC))
def test_specialize_is_a_homomorphism(a, b):
    for target in (CONWAY, gf(5)):
        assert specialize(a * b, target) == specialize(a, target) * specialize(b, target)
        assert specialize(a + b, target) == specialize(a, target) + specialize(b, target)
    assert specialize(GENERIC.one, CONWAY) == CONWAY.one


@settings(max_examples=60, deadline=None)
@given(poly_strategy(GENERIC), st.integers(0, 2))
def test_specialize_scalar_consistency(num, k):
    s = GENERIC.scalar(num, k)
    for target in (CONWAY, gf(5)):
        mapped = specialize_scalar(s, target)
        # Same value: cross-multiply inside the target ring.
        assert mapped.num * target.denom_pow(k) == specialize(num, target) * target.denom_pow(
            mapped.dpow
        )


def test_ring_registry_shares_instances():
    assert Ring() is Ring() is GENERIC
    assert Ring(5) is gf(5)
    assert Ring(conway=True) is CONWAY
    assert copy.deepcopy(CONWAY.x).ring is CONWAY
    assert pickle.loads(pickle.dumps(gf(5).x)) == gf(5).x


def test_localized_requires_matching_ring():
    with pytest.raises(ValueError):
        LocalizedScalar(GENERIC, gf(5).one, 0)
    with pytest.raises(ValueError, match="^denominator exponent must be nonnegative$"):
        GENERIC.scalar(GENERIC.one, -1)
    with pytest.raises(ValueError):
        GENERIC.scalar_one + gf(5).scalar_one
