"""Resolution cubes, coordinate solving, and the polynomial invariant."""

import random

import pytest

from skeinforge import (
    CONWAY,
    GENERIC,
    UNKNOT,
    X,
    Y,
    Y_PRIME,
    BoundError,
    OrderedSkeinElement,
    SkeinPolynomial,
    all_patterns,
    apply_cube,
    connected_sum,
    eval_vector,
    gf,
    homfly,
    invariant,
    invariant_ordered,
    parse_link,
    permute_bits,
    project_unordered,
    reorder,
    resolve_all,
    solve_coordinates,
    star,
)
from skeinforge import skein
from skeinforge.braid import random_word
from skeinforge.engine import _ZERO, _decode
from skeinforge.skein import _unordered_numerators

R = GENERIC
MODES = (GENERIC, CONWAY, gf(2), gf(3), gf(5))


def unit_element(ring, bits):
    return OrderedSkeinElement(ring, len(bits), {tuple(bits): ring.scalar_one})


def random_poly(rng, ring):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e_t = 0 if ring.conway else rng.randint(-3, 3)
        terms[(e_t, rng.randint(-3, 3))] = rng.randint(-9, 9)
    return ring.poly(terms)


# -- the 2x2 matrix ---------------------------------------------------------


@pytest.mark.parametrize("ring", MODES, ids=lambda r: r.name)
def test_eval_matrix_inverse_exact(ring):
    # B M(delta) M(-delta) = D I with B = -x^2: the inverse the solve
    # applies is M(-delta) times B / D.
    b = -(ring.x * ring.x)
    m = ((ring.delta, ring.one), (ring.one, ring.delta))
    m_neg = ((-ring.delta, ring.one), (ring.one, -ring.delta))
    for r in range(2):
        for c in range(2):
            entry = b * (m[r][0] * m_neg[0][c] + m[r][1] * m_neg[1][c])
            assert entry == (ring.denom if r == c else ring.zero)


# -- evaluation vectors -------------------------------------------------------


def test_eval_vector_generators():
    one, delta = R.one, R.delta
    assert eval_vector(X, R) == {(0,): delta, (1,): one}
    assert eval_vector(Y, R) == {(0,): one, (1,): delta}


def test_eval_vector_of_connected_sum():
    xy = connected_sum(X, Y)
    d = R.delta
    assert eval_vector(xy, R) == {
        (0, 0): d,
        (0, 1): d * d,
        (1, 0): R.one,
        (1, 1): d,
    }
    # Entries are plain closures of the resolved words.
    for bits, value in eval_vector(xy, R).items():
        assert value == homfly(resolve_all(xy, bits), R)


def test_eval_vector_bounds():
    many = parse_link("2: " + " ".join(["t1"] * 11))
    with pytest.raises(BoundError):
        eval_vector(many, R)
    assert len(eval_vector(many, R, max_sing=11)) == 2**11


def test_eval_vector_refuses_a_strand_count_above_the_bound():
    # The engine's check refuses it, before any pass.
    with pytest.raises(BoundError, match="^2049 strands exceeds the bound 2048$"):
        eval_vector(parse_link("2049: t1 s1"), R)


@pytest.mark.parametrize("ring", [R, CONWAY, gf(5)])
def test_eval_vector_counts_work_over_all_passes(monkeypatch, ring):
    # The 32 resolution passes share one count: 970 terms in act, the
    # passes and the trace expansions together.
    link = parse_link("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3")
    monkeypatch.setattr(skein, "MAX_CUBE_WORK", 970)
    values = eval_vector(link, ring)
    assert values == {bits: homfly(resolve_all(link, bits), ring) for bits in all_patterns(5)}
    monkeypatch.setattr(skein, "MAX_CUBE_WORK", 969)
    with pytest.raises(BoundError, match="^the resolution passes exceed the bound of 969 terms$"):
        eval_vector(link, ring)


@pytest.mark.parametrize("ring, work", [(R, 157_163), (CONWAY, 157_163), (gf(5), 157_120)])
def test_eval_vector_work_count_of_the_d10_word(monkeypatch, ring, work):
    # The 1,024 resolution passes of the d = 10 word share one count.  The
    # resolutions are classical, so each pass starts at rotation 0; only
    # the graded pass of a singular word is rotated.
    runs = []

    class Counted(skein._Pass):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(skein, "_Pass", Counted)
    link = parse_link("5: t1 s2 t3 s4^-1 t2 s1^-1 t4 s3 t1 s2^-1 t3 s4 t2 s1 t4 s3^-1 t1 t2 s2 s1")
    eval_vector(link, ring)
    assert [run.work for run in runs] == [work]


# -- coordinate solving -------------------------------------------------------


def test_solve_generators():
    a = solve_coordinates({(0,): R.delta, (1,): R.one}, R)
    assert a == unit_element(R, (0,))
    b = solve_coordinates({(0,): R.one, (1,): R.delta}, R)
    assert b == unit_element(R, (1,))


def test_solve_rejects_malformed_input():
    with pytest.raises(ValueError):
        solve_coordinates({(0,): R.one}, R)
    with pytest.raises(ValueError):
        solve_coordinates({}, R)


@pytest.mark.parametrize("ring", MODES, ids=lambda r: r.name)
def test_solve_round_trip_random(ring):
    rng = random.Random(404)
    for d in range(0, 6):
        for _ in range(10):
            values = {bits: random_poly(rng, ring) for bits in all_patterns(d)}
            element = solve_coordinates(values, ring)
            assert element.d == d
            assert all(c.dpow <= d for c in element.coords.values())
            assert apply_cube(element) == {
                bits: ring.scalar(v) for bits, v in values.items()
            }


@pytest.mark.parametrize("ring", MODES, ids=lambda r: r.name)
def test_solve_round_trip_mixed_denominators(ring):
    rng = random.Random(405)
    for d in range(0, 5):
        for _ in range(6):
            values = {
                bits: ring.scalar(random_poly(rng, ring), rng.randint(0, 3))
                for bits in all_patterns(d)
            }
            assert apply_cube(solve_coordinates(values, ring)) == values


# -- ordered invariants --------------------------------------------------------


def test_invariant_ordered_pinned():
    assert invariant_ordered(X, R) == unit_element(R, (0,))
    assert invariant_ordered(Y, R) == unit_element(R, (1,))
    expected = OrderedSkeinElement(
        R,
        1,
        {(0,): R.scalar(-(R.t_inv * R.x)), (1,): R.scalar(R.t_inv * R.t_inv)},
    )
    assert invariant_ordered(Y_PRIME, R) == expected


def test_nonsingular_links_have_one_coordinate():
    trefoil = parse_link("2: s1 s1 s1")
    element = invariant_ordered(trefoil, R)
    assert element.d == 0
    assert element.coords == {(): R.scalar(homfly(trefoil.word, R))}


def test_basis_patterns_have_unit_coordinates():
    for d in range(0, 4):
        for bits in all_patterns(d):
            link = UNKNOT
            for b in bits:
                link = connected_sum(link, X if b == 0 else Y)
            assert invariant_ordered(link, R) == unit_element(R, bits)


def test_star_of_coordinates():
    assert star(unit_element(R, (0,)), unit_element(R, (1,))) == unit_element(R, (0, 1))
    rng = random.Random(505)
    for _ in range(25):
        l1 = random_word(rng, strands=rng.randint(2, 3), classical=rng.randint(0, 4), sing=rng.randint(0, 2), shuffle_labels=True)
        l2 = random_word(rng, strands=rng.randint(2, 3), classical=rng.randint(0, 4), sing=rng.randint(0, 1), shuffle_labels=True)
        e1 = invariant_ordered(l1, R)
        e2 = invariant_ordered(l2, R)
        assert invariant_ordered(connected_sum(l1, l2), R) == star(e1, e2)
    # The unknot's coordinates are the unit for the product.
    e = invariant_ordered(parse_link("2: t1 s1^-1"), R)
    assert star(invariant_ordered(UNKNOT, R), e) == e


def test_containers_refuse_values_of_another_ring():
    with pytest.raises(ValueError):
        OrderedSkeinElement(R, 1, {(0,): CONWAY.scalar_one})
    with pytest.raises(ValueError):
        SkeinPolynomial(R, {(0, 0): gf(5).scalar_one})
    with pytest.raises(ValueError):
        solve_coordinates({(0,): CONWAY.delta, (1,): CONWAY.one}, R)
    with pytest.raises(ValueError):
        star(unit_element(R, (0,)), unit_element(CONWAY, (1,)))
    with pytest.raises(ValueError):
        invariant(X, R) + invariant(X, CONWAY)
    with pytest.raises(ValueError):
        invariant(X, R) - invariant(X, CONWAY)
    # Empty containers of two rings hold no values, but still differ.
    assert OrderedSkeinElement(R, 1, {}) != OrderedSkeinElement(CONWAY, 1, {})
    assert SkeinPolynomial(R, {}) != SkeinPolynomial(CONWAY, {})
    assert OrderedSkeinElement(R, 1, {(0,): R.scalar_zero}).is_zero
    assert not unit_element(R, (0,)).is_zero


def test_project_unordered():
    assert project_unordered(unit_element(R, (0,))) == SkeinPolynomial(
        R, {(1, 0): R.scalar_one}
    )
    two = OrderedSkeinElement(
        R, 2, {(0, 1): R.scalar_one, (1, 0): R.scalar_one}
    )
    assert project_unordered(two) == SkeinPolynomial(R, {(1, 1): R.scalar(R.monomial(2))})


def test_project_is_an_algebra_map():
    rng = random.Random(606)
    for _ in range(25):
        l1 = random_word(rng, strands=2, classical=rng.randint(0, 3), sing=rng.randint(0, 2))
        l2 = random_word(rng, strands=2, classical=rng.randint(0, 3), sing=rng.randint(0, 2))
        e1 = invariant_ordered(l1, R)
        e2 = invariant_ordered(l2, R)
        assert project_unordered(star(e1, e2)) == project_unordered(e1) * project_unordered(e2)
        p1, p2 = invariant(l1, R), invariant(l2, R)
        assert p1 + p2 - p1 == p2
        assert (p1 - p1).is_zero and not p1.is_zero


def test_invariant_pinned():
    assert invariant(X, R) == SkeinPolynomial(R, {(1, 0): R.scalar_one})
    assert invariant(Y, R) == SkeinPolynomial(R, {(0, 1): R.scalar_one})
    trefoil = parse_link("2: s1 s1 s1")
    assert invariant(trefoil, R) == SkeinPolynomial(
        R, {(0, 0): R.scalar(R.poly({(4, 0): -1, (2, 0): 2, (2, 2): 1}))}
    )


def test_invariant_grading():
    link = parse_link("3: t1 s2 t2 s1^-1 | o = 2 1")
    poly = invariant(link, R)
    assert all(i + j == link.d for i, j in poly.coeffs)


def test_invariant_ignores_labels():
    rng = random.Random(707)
    for _ in range(20):
        link = random_word(rng, strands=rng.randint(2, 3), classical=rng.randint(0, 4), sing=rng.randint(0, 3), shuffle_labels=True)
        w = list(range(1, link.d + 1))
        rng.shuffle(w)
        moved = reorder(link, tuple(w))
        assert invariant(moved, R) == invariant(link, R)
        base = invariant_ordered(link, R)
        relabeled = invariant_ordered(moved, R)
        assert relabeled.coords == {
            permute_bits(bits, w): c for bits, c in base.coords.items()
        }


@pytest.mark.parametrize("ring", MODES, ids=lambda r: r.name)
def test_invariant_matches_projected_coordinates(ring):
    # The weight-sum path against the reference: solve, then project.
    # Two links per d = 0..7, then one per d = 8..10, up to the default bound.
    rng = random.Random(808)
    for d in [d for d in range(8) for _ in range(2)] + [8, 9, 10]:
        link = random_word(rng, strands=rng.randint(2, 4), classical=rng.randint(0, 6), sing=d, shuffle_labels=True)
        assert invariant(link, ring) == project_unordered(invariant_ordered(link, ring))


def _zmul(ring, p, q):
    # Product of two polynomials in z given as LaurentPoly coefficient lists.
    out = [ring.zero] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, e in enumerate(q):
            out[i + j] = out[i + j] + c * e
    return out


def _entries_of_d_times_inverse(ring):
    # D M(delta)^(-1) = [[A, B], [B, A]], written out independently of the
    # solve's B M(-delta) form.
    return ring.x * (ring.t_inv - ring.t), -(ring.x * ring.x)


def _kernel_by_expansion(ring, d):
    # Row w: the z^j coefficients of (A + B z)^(d - w) (B + A z)^w, multiplied out.
    powers = [[ring.one]]
    for _ in range(d):
        powers.append(_zmul(ring, powers[-1], list(_entries_of_d_times_inverse(ring))))
    return [_zmul(ring, powers[d - w], powers[w][::-1]) for w in range(d + 1)]


@pytest.mark.parametrize("ring", MODES, ids=lambda r: r.name)
def test_weight_kernel_matches_expansion(ring):
    # Unit weight sums, S_w = 1 and the others 0, give row w of the A/B
    # form; as A = B c, that row already carries the kernel's B^d.
    for d in range(11):
        rows = _kernel_by_expansion(ring, d)
        for w in range(d + 1):
            sums = [{_ZERO: 1} if v == w else {} for v in range(d + 1)]
            nums = _unordered_numerators(sums, ring)
            assert [ring.poly(_decode(num)) for num in nums] == rows[w], (d, w)


def test_skein_polynomial_strings():
    assert str(invariant(X, R)) == "X"
    assert str(invariant(Y_PRIME, CONWAY)) == "Y - x X"
    assert str(invariant(Y_PRIME, R)) == "t^(-2) Y - t^(-1) x X"
    assert str(invariant(UNKNOT, R)) == "1"
    assert str(invariant(connected_sum(X, Y), R)) == "X Y"
    assert str(SkeinPolynomial(R, {})) == "0"
