"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality (zero tolerance); the randomized
criteria run at their stated case counts from fixed seeds.  Each test
prints its own pass line, so ``pytest -v -s tests/test_acceptance.py``
reads as a criterion-by-criterion report.
"""

import random

from skeinforge import (
    CONWAY,
    GENERIC,
    UNKNOT,
    X,
    Y,
    Y_PRIME,
    OrderedSkeinElement,
    SkeinPolynomial,
    all_patterns,
    apply_cube,
    connected_sum,
    gf,
    homfly,
    homfly_reference,
    invariant,
    invariant_ordered,
    parse_word,
    solve_coordinates,
)
from skeinforge.checks import (
    suite_lemma22,
    suite_markov,
    suite_oracle,
    suite_ordering,
    suite_skein,
    suite_specialize,
    suite_star,
)

R = GENERIC


def passed(n: int, text: str) -> None:
    print(f"[acceptance] criterion {n:2d} ({text}): PASS")


def unit(ring, bits):
    return OrderedSkeinElement(ring, len(bits), {tuple(bits): ring.scalar_one})


def test_criterion_01_generators():
    assert invariant(X, R) == SkeinPolynomial(R, {(1, 0): R.scalar_one})
    assert invariant(Y, R) == SkeinPolynomial(R, {(0, 1): R.scalar_one})
    expected = SkeinPolynomial(
        R,
        {
            (0, 1): R.scalar(R.t_inv * R.t_inv),
            (1, 0): R.scalar(-(R.t_inv * R.x)),
        },
    )
    assert invariant(Y_PRIME, R) == expected
    passed(1, "generator links evaluate exactly")


def test_criterion_02_freeness():
    for d in range(0, 4):
        for bits in all_patterns(d):
            link = UNKNOT
            for b in bits:
                link = connected_sum(link, X if b == 0 else Y)
            assert invariant_ordered(link, R) == unit(R, bits), bits
    passed(2, "basis patterns give unit coordinate vectors, d <= 3")


def test_criterion_03_skein_relation():
    report = suite_skein(seed=20243)
    assert report.ok and report.cases == 200, report.format()
    passed(3, "skein relation on 200 random triples in all three ring modes")


def test_criterion_04_isotopy_invariance():
    report = suite_markov(seed=20244)
    assert report.ok and report.cases == 1400, report.format()
    passed(4, "invariance under 200 random applications of each of 7 moves")


def test_criterion_05_multiplicativity():
    report = suite_star(seed=20245)
    assert report.ok and report.cases == 100, report.format()
    passed(5, "connected sum multiplies coordinates and polynomials, unit law")


def test_criterion_06_two_products_bridge():
    report = suite_lemma22(seed=20246)
    assert report.ok and report.cases == 100, report.format()
    passed(6, "(t^-1 - t) inv(sum) = x inv(stacked); stacked dies at t = 1")


def test_criterion_07_ordering_independence():
    report = suite_ordering(seed=20247)
    assert report.ok and report.cases == 100, report.format()
    passed(7, "relabeling permutes coordinates, projection unchanged")


def test_criterion_08_specialization_coherence():
    report = suite_specialize(seed=20248)
    assert report.ok and report.cases == 100, report.format()
    passed(8, "generic invariants specialize to native conway and GF(5)")


def test_criterion_09_oracle_equivalence():
    report = suite_oracle()
    assert report.ok and report.cases == 5589, report.format()
    hopf = parse_word("2: s1 s1")
    trefoil = parse_word("2: s1 s1 s1")
    hopf_value = R.poly({(1, 1): 1, (1, -1): 1, (3, -1): -1})
    trefoil_value = R.poly({(4, 0): -1, (2, 0): 2, (2, 2): 1})
    assert homfly_reference(hopf, R) == hopf_value
    assert homfly_reference(trefoil, R) == trefoil_value
    assert homfly(hopf, R) == hopf_value
    assert homfly(trefoil, R) == trefoil_value
    passed(9, "engine equals naive expansion on all 5589 small closures")


def test_criterion_10_tensor_solve():
    rng = random.Random(202410)

    def random_poly(ring):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e_t = 0 if ring.conway else rng.randint(-3, 3)
            terms[(e_t, rng.randint(-3, 3))] = rng.randint(-9, 9)
        return ring.poly(terms)

    for ring in (GENERIC, CONWAY, gf(5)):
        for d in range(0, 6):
            for _ in range(50):
                values = {bits: random_poly(ring) for bits in all_patterns(d)}
                element = solve_coordinates(values, ring)
                assert apply_cube(element) == {
                    bits: ring.scalar(v) for bits, v in values.items()
                }
    passed(10, "forward cube recovers inputs for 50 random vectors per d <= 5")
