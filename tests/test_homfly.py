"""The classical evaluator: pinned values, defining properties, oracle spot checks."""

import gc
import random
import tracemalloc
from itertools import product

import pytest

from skeinforge import engine
from skeinforge.braid import random_word
from skeinforge import (
    CONWAY,
    GENERIC,
    NEG,
    POS,
    SING,
    BoundError,
    OrderedSingularLink,
    PreconditionError,
    SingularBraidWord,
    all_patterns,
    clear_cache,
    connected_sum,
    gf,
    homfly,
    homfly_reference,
    parse_word,
    resolve_all,
    split_union,
    unlink_value,
)

R = GENERIC

HOPF = parse_word("2: s1 s1")
TREFOIL = parse_word("2: s1 s1 s1")
HOPF_VALUE = R.poly({(1, 1): 1, (1, -1): 1, (3, -1): -1})
TREFOIL_VALUE = R.poly({(4, 0): -1, (2, 0): 2, (2, 2): 1})


def random_classical(rng, max_strands=5, max_len=10):
    n = rng.randint(2, max_strands)
    letters = tuple(
        (rng.choice((POS, NEG)), rng.randint(1, n - 1))
        for _ in range(rng.randint(0, max_len))
    )
    return SingularBraidWord(n, letters)


# -- base values ----------------------------------------------------------


def test_unlink_values():
    assert unlink_value(R, 1) == R.one
    assert unlink_value(R, 2) == R.delta
    assert unlink_value(R, 3) == R.delta * R.delta
    with pytest.raises(PreconditionError):
        unlink_value(R, 0)


def test_unknot_normalization():
    assert homfly(parse_word("1:"), R) == R.one
    assert homfly(parse_word("2: s1"), R) == R.one
    assert homfly(parse_word("2: s1^-1"), R) == R.one


def test_pinned_hopf_and_trefoil():
    assert homfly(HOPF, R) == HOPF_VALUE
    assert homfly(TREFOIL, R) == TREFOIL_VALUE


def test_oracle_confirms_pinned_values():
    assert homfly_reference(HOPF, R) == HOPF_VALUE
    assert homfly_reference(TREFOIL, R) == TREFOIL_VALUE


def test_rejects_singular_words():
    with pytest.raises(PreconditionError):
        homfly(parse_word("2: t1"), R)
    with pytest.raises(PreconditionError):
        homfly_reference(parse_word("2: t1"), R)


def test_crossing_bound():
    big = SingularBraidWord(2, ((POS, 1),) * 25)
    with pytest.raises(BoundError):
        homfly(big, R)
    assert homfly(big, R, max_crossings=25) is not None


# -- defining properties -----------------------------------------------------


def test_skein_relation_randomized():
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        w = random_classical(rng)
        if not w.letters:
            continue
        checked += 1
        k = rng.randrange(len(w.letters))
        _, i = w.letters[k]
        plus = SingularBraidWord(w.strands, w.letters[:k] + ((POS, i),) + w.letters[k + 1 :])
        minus = SingularBraidWord(w.strands, w.letters[:k] + ((NEG, i),) + w.letters[k + 1 :])
        zero = SingularBraidWord(w.strands, w.letters[:k] + w.letters[k + 1 :])
        assert R.x * homfly(zero, R) == R.t_inv * homfly(plus, R) - R.t * homfly(minus, R)


def test_markov_moves_randomized():
    rng = random.Random(202)
    for _ in range(200):
        w = random_classical(rng)
        value = homfly(w, R)
        g = (rng.choice((POS, NEG)), rng.randint(1, w.strands - 1))
        conjugated = SingularBraidWord(w.strands, (g,) + w.letters + ((-g[0], g[1]),))
        assert homfly(conjugated, R) == value
        for kind in (POS, NEG):
            stabilized = SingularBraidWord(w.strands + 1, w.letters + ((kind, w.strands),))
            assert homfly(stabilized, R) == value


def test_product_values_randomized():
    rng = random.Random(303)
    for _ in range(100):
        a = OrderedSingularLink(random_classical(rng, 3, 6))
        b = OrderedSingularLink(random_classical(rng, 3, 6))
        pa, pb = homfly(a.word, R), homfly(b.word, R)
        assert homfly(split_union(a, b).word, R) == R.delta * pa * pb
        assert homfly(connected_sum(a, b).word, R) == pa * pb


def test_engine_matches_oracle_sampled():
    # The exhaustive sweep lives in the acceptance suite; here a fast sample.
    for strands in (2, 3):
        alphabet = [(kind, i) for i in range(1, strands) for kind in (POS, NEG)]
        for length in range(0, 5):
            for letters in product(alphabet, repeat=length):
                w = SingularBraidWord(strands, letters)
                assert homfly(w, R) == homfly_reference(w, R)


def test_engine_matches_oracle_on_wide_words():
    # Letters on a few scattered indices leave several free strands
    # between and around them, which one round drops together; short
    # words also put kinks on the top and bottom strands.
    rng = random.Random(404)
    for ring in (R, CONWAY, gf(5)):
        for _ in range(80):
            n = rng.randint(4, 7)
            used = rng.sample(range(1, n), rng.randint(1, min(3, n - 1)))
            letters = tuple(
                (rng.choice((POS, NEG)), rng.choice(used))
                for _ in range(rng.randint(0, 8))
            )
            w = SingularBraidWord(n, letters)
            assert homfly(w, ring) == homfly_reference(w, ring)
        for text in ("7: s1 s5 s1 s5^-1 s1 s5", "7: s5 s1^-1 s5 s6 s1^-1 s5", "6: s2 s4 s4 s2 s4"):
            w = parse_word(text)
            assert homfly(w, ring) == homfly_reference(w, ring)


def test_simplify_drops_every_free_strand_in_one_round():
    # Strands 3, 4 and 7 of 7 are free; index 5 becomes index 3.
    assert engine._simplify(7, ((POS, 1), (POS, 1), (POS, 5), (POS, 5), (POS, 5))) == (
        4,
        ((POS, 1), (POS, 1), (POS, 3), (POS, 3), (POS, 3)),
        3,
    )
    assert engine._simplify(5, ()) == (1, (), 4)
    assert engine._simplify(4, ((POS, 2), (NEG, 2))) == (1, (), 3)
    # A kink on the bottom strand shifts the word down a strand.
    assert engine._simplify(3, ((POS, 1), (NEG, 2), (NEG, 2))) == (2, ((NEG, 1), (NEG, 1)), 0)
    # A kink on the top strand leaves one on the new top strand.
    assert engine._simplify(3, ((POS, 1), (NEG, 2))) == (1, (), 0)


def test_simplify_keeps_singular_letters():
    # Two singular letters on one index cancel neither side by side nor
    # across the seam, and a lone one on an edge index is not a kink; the
    # free bottom strand still drops.
    assert engine._simplify(2, ((SING, 1), (SING, 1))) == (2, ((SING, 1), (SING, 1)), 0)
    assert engine._simplify(3, ((SING, 2),)) == (2, ((SING, 1),), 1)
    assert engine._simplify(2, ((SING, 1), (POS, 1), (SING, 1))) == (
        2,
        ((SING, 1), (POS, 1), (SING, 1)),
        0,
    )


def random_singular(rng):
    # Words with free strands and singular letters on edge indices.
    n = rng.randint(1, 6)
    letters = []
    if n > 1:
        used = rng.sample(range(1, n), rng.randint(1, n - 1))
        letters = [(rng.choice((POS, NEG)), rng.choice(used)) for _ in range(rng.randint(0, 6))]
        letters += [(SING, rng.choice(used + [1, n - 1])) for _ in range(rng.randint(0, 3))]
        rng.shuffle(letters)
    return OrderedSingularLink(SingularBraidWord(n, tuple(letters)))


def reference_weight_sums(link, ring):
    # S_g sums the oracle's values of the resolutions with g ones.
    expected = [ring.zero] * (link.d + 1)
    for bits in all_patterns(link.d):
        expected[sum(bits)] += homfly_reference(resolve_all(link, bits), ring)
    return expected


def test_weight_sums_match_oracle():
    rng = random.Random(707)
    for ring in (R, CONWAY, gf(5)):
        for _ in range(150):
            link = random_singular(rng)
            assert engine.weight_sums(link.word, ring) == reference_weight_sums(link, ring), link


def test_weight_sums_match_oracle_small_primes():
    # Over GF(2) and GF(3) many skein-step products vanish or wrap, and
    # conway folds t to 1: each returned term map must still be canonical.
    rng = random.Random(717)
    for ring in (gf(2), gf(3), CONWAY):
        p = ring.p
        for _ in range(150):
            link = random_singular(rng)
            sums = engine.weight_sums(link.word, ring)
            assert sums == reference_weight_sums(link, ring), link
            for (e_t, _), c in (item for s in sums for item in s.terms.items()):
                assert (1 <= c < p) if p else c != 0, link
                assert e_t == 0 or not ring.conway, link


def test_trace_table_is_bounded_by_the_permutations():
    # A shared table holds at most one entry per permutation on 1..6 strands.
    cache: dict = {}
    rng = random.Random(808)
    for _ in range(200):
        link = random_word(rng, strands=rng.randint(3, 6), classical=24)
        homfly(link.word, R, cache=cache)
    assert len(cache) <= 1 + 2 + 6 + 24 + 120 + 720


def test_table_values():
    # Known table values in the (v, z) normalization, which this
    # relation matches with v = t, z = x.
    fig8 = parse_word("3: s1 s2^-1 s1 s2^-1")
    assert homfly(fig8, R) == R.poly({(-2, 0): 1, (0, 0): -1, (2, 0): 1, (0, 2): -1})
    cinquefoil = parse_word("2: s1 s1 s1 s1 s1")
    assert homfly(cinquefoil, R) == R.poly(
        {(4, 0): 3, (6, 0): -2, (4, 2): 4, (6, 2): -1, (4, 4): 1}
    )
    left_trefoil = parse_word("2: s1^-1 s1^-1 s1^-1")
    assert homfly(left_trefoil, R) == R.poly({(-4, 0): -1, (-2, 0): 2, (-2, 2): 1})


def test_other_ring_modes():
    assert homfly(TREFOIL, CONWAY) == CONWAY.poly({(0, 0): 1, (0, 2): 1})
    assert homfly(TREFOIL, gf(5)) == gf(5).poly({(4, 0): -1, (2, 0): 2, (2, 2): 1})
    assert homfly(parse_word("2:"), CONWAY).is_zero  # delta dies at t = 1


def test_fresh_cache_gives_same_answer():
    cache: dict = {}
    assert homfly(TREFOIL, R, cache=cache) == TREFOIL_VALUE
    assert cache  # the engine actually stored subresults
    assert homfly(TREFOIL, R, cache={}) == TREFOIL_VALUE


def test_shared_cache_refuses_another_ring():
    # A trace table holds values of one ring; reading generic traces in a
    # conway pass would print t-terms in a conway answer.
    fig8 = parse_word("3: s1 s2^-1 s1 s2^-1")
    cache: dict = {}
    homfly(fig8, GENERIC, cache=cache)
    assert cache
    with pytest.raises(ValueError):
        homfly(fig8, CONWAY, cache=cache)
    assert homfly(fig8, CONWAY) == CONWAY.poly({(0, 0): 1, (0, 2): -1})


def test_no_memory_outlives_a_call():
    # The 400-strand unknot with a kink asks for delta^398, and the 13-strand word
    # s1 s1 s2 s2 ... s12 s12 fills a trace table of 8191 entries.
    doubled = " ".join(f"s{i} s{i}" for i in range(1, 13))
    words = [parse_word("400: s1"), parse_word(f"13: {doubled}")]
    gc.collect()
    tracemalloc.start()
    try:
        for word in words:
            homfly(word, R)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    clear_cache()  # still callable, and a no-op
    assert homfly(TREFOIL, R) == TREFOIL_VALUE
