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
from skeinforge.rings import _reduce_fraction

MODES = (GENERIC, CONWAY, gf(5))


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
    assert Ring.get(97).p == 97
    with pytest.raises(ValueError):
        gf(6)
    with pytest.raises(ValueError):
        Ring.get(1)
    # A refused modulus leaves nothing behind to hand out later.
    with pytest.raises(ValueError):
        Ring.get(6, conway=True)


def test_ring_rejects_strong_pseudoprime_to_bases_below_41():
    # 399165290221 * 798330580441 passes Miller-Rabin to every prime base
    # up to 37; base 41 makes the test deterministic below 3.3e24.
    with pytest.raises(ValueError):
        gf(318665857834031151167461)


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


NORMAL_FORM_MODES = (GENERIC, CONWAY, gf(2), gf(3), gf(5))


def normal_form_cases():
    # n D^k times a monomial divides k times; n D^k + 1 usually does not.
    return st.sampled_from(NORMAL_FORM_MODES).flatmap(
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


@pytest.mark.parametrize("ring", NORMAL_FORM_MODES, ids=lambda r: r.name)
def test_row_wise_normal_form_of_zero_and_powers_of_d(ring):
    for k in range(7):
        assert _reduce_fraction(ring, ring.zero, k) == (ring.zero, 0)
        assert _reduce_fraction(ring, ring.denom_pow(k), k) == (ring.one, 0)
        assert _reduce_fraction(ring, ring.denom_pow(k), k + 2) == _reduce_by_exact_div(
            ring, ring.denom_pow(k), k + 2
        )


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


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODES), st.integers(0, 40), st.integers(0, 40))
def test_powers_are_multiplicative(ring, j, k):
    # delta_pow and denom_pow square and multiply afresh on every call.
    assert ring.delta_pow(j + k) == ring.delta_pow(j) * ring.delta_pow(k)
    assert ring.denom_pow(k + 1) == ring.denom_pow(k) * ring.denom
    assert ring.delta_pow(0) == ring.denom_pow(0) == ring.one


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
    assert not z


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
    assert Ring.get() is Ring.get()
    assert Ring.get(5) is gf(5)
    assert Ring.get(conway=True) is CONWAY
    assert Ring(5) is gf(5) and Ring() is GENERIC
    assert copy.deepcopy(CONWAY.x).ring is CONWAY
    assert pickle.loads(pickle.dumps(gf(5).x)) == gf(5).x


def test_localized_requires_matching_ring():
    with pytest.raises(ValueError):
        LocalizedScalar(GENERIC, gf(5).one, 0)
    with pytest.raises(ValueError):
        GENERIC.scalar_one + gf(5).scalar_one
