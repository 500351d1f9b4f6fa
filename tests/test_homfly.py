"""The classical evaluator: pinned values, defining properties, oracle spot checks."""

import gc
import random
import tracemalloc
from itertools import product

import pytest

from skeinforge import engine
from skeinforge.braid import random_word
from skeinforge.rings import _canonical
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
    eval_vector,
    gf,
    homfly,
    homfly_reference,
    parse_link,
    parse_word,
    resolve_all,
    split_union,
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
    # The k-component unlink is delta^(k-1); a braid has at least one strand.
    for k in (1, 2, 3):
        assert homfly(parse_word(f"{k}:"), R) == R.delta_pow(k - 1)
    with pytest.raises(ValueError):
        SingularBraidWord(0, ())


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


def simplifies_to(text, expected, delta_pow=0):
    word, want = parse_word(text), parse_word(expected)
    return engine._simplify(word.strands, word.letters) == (want.strands, want.letters, delta_pow)


def test_simplify_cancels_across_commuting_letters():
    # Singular frames on every index keep the seam, free strands and
    # kinks out of play.  s3 commutes with s1, s2 does not.
    frame = "t1 t2 t3"
    assert simplifies_to(f"4: {frame} s1 s3 s1^-1 {frame}", f"4: {frame} s3 {frame}")
    assert simplifies_to(f"4: {frame} s1 s2 s1^-1 {frame}", f"4: {frame} s1 s2 s1^-1 {frame}")
    # A cancellation can unblock the next one.
    assert simplifies_to(f"4: {frame} s1 s3 s2 s2^-1 s3^-1 s1^-1 {frame}", f"4: {frame} {frame}")


def test_simplify_singular_letters_block_only_their_neighbourhood():
    frame = "t1 t2 t3 t4 t5"
    for far in ("t3", "t4", "t5", "t3 t5"):
        assert simplifies_to(f"6: {frame} s1 {far} s1^-1 {frame}", f"6: {frame} {far} {frame}"), far
    for near in ("t1", "t2", "t3 t2"):
        word = f"6: {frame} s1 {near} s1^-1 {frame}"
        assert simplifies_to(word, word), near


def test_simplify_cancels_across_the_seam_up_to_commutation():
    # s1 is the first letter on indices 0..2 and s1^-1 the last, so both
    # commute to the seam, though the word ends in s3.  The free bottom
    # strand then drops.
    assert simplifies_to("4: s1 t2 t3 t2 t3 s1^-1 s3", "3: t1 t2 t1 t2 s2", 1)
    # s2 after s1^-1 does not commute with it.
    assert simplifies_to("4: s1 t2 t3 t2 t3 s1^-1 s2", "4: s1 t2 t3 t2 t3 s1^-1 s2")
    # s1 blocks s2 until s1 s1^-1 cancel there.
    assert simplifies_to("5: s1 s2 t3 t4 t3 t4 s2^-1 s4 s1^-1", "3: t1 t2 t1 t2 s2", 2)


def test_simplify_cascades_to_a_smaller_braid():
    # s1 s1^-1 cancel across s3, s3 s3^-1 across the seam, and the
    # two free strands each leave a delta factor.
    assert simplifies_to("4: s1 s3 s1^-1 s2 s2 s2 s3^-1", "2: s1 s1 s1", 2)


def test_simplify_peels_kinks_and_what_they_free():
    # A sweep peels one kink after another; a peel that empties the new
    # edge index frees a strand, and one that leaves it two letters lets
    # them cancel.
    assert simplifies_to("6: s1 s2 s3 s4 s5", "1:")
    assert simplifies_to("4: s1 t3 t3", "2: t1 t1", 1)
    assert simplifies_to("4: s3 s1 s2 s1^-1", "1:", 1)


def planted(rng, classical):
    # A random word with a pair g ... g^(-1) planted around letters two or
    # more indices away from g's, and the same word with the pair removed.
    n = rng.randint(3, 6)
    kinds = (POS, NEG) if classical else (POS, NEG, SING)

    def letters(count, indices):
        return [(rng.choice(kinds), rng.choice(indices)) for _ in range(count)] if indices else []

    i = rng.randint(1, n - 1)
    far = [j for j in range(1, n) if abs(j - i) >= 2]
    g = rng.choice((POS, NEG))
    head, inside, tail = (letters(rng.randint(0, 3), list(range(1, n))), letters(rng.randint(0, 3), far),
                          letters(rng.randint(0, 3), list(range(1, n))))
    word = head + [(g, i)] + inside + [(-g, i)] + tail
    return SingularBraidWord(n, tuple(word)), SingularBraidWord(n, tuple(head + inside + tail))


def test_planted_commuting_pairs_keep_every_value():
    rng = random.Random(1993)
    for ring in (R, CONWAY, gf(5)):
        for _ in range(40):
            word, removed = planted(rng, classical=True)
            assert len(engine._simplify(word.strands, word.letters)[1]) <= len(word.letters) - 2, word
            value = homfly(word, ring)
            assert value == homfly(removed, ring) == homfly_reference(word, ring), word
        for _ in range(40):
            word, removed = planted(rng, classical=False)
            link = OrderedSingularLink(word)
            sums = engine.weight_sums(word, ring)
            assert sums == engine.weight_sums(removed, ring) == reference_weight_sums(link, ring), word


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


def wide_singular(rng, one_sign=False):
    # Every index at least once and both edge indices twice.  With mixed
    # signs letters cancel, some across commuting letters; with one sign
    # per index no letter meets its inverse, so most words keep 7 or more
    # strands through simplification.
    n = rng.randint(7, 12)
    indices = list(range(1, n)) + [1, n - 1] + [rng.randint(1, n - 1) for _ in range(rng.randint(0, 2))]
    if one_sign:
        signs = [rng.choice((POS, NEG)) for _ in range(n)]
        letters = [(signs[i], i) for i in indices]
    else:
        letters = [(rng.choice((POS, NEG)), i) for i in indices]
    for _ in range(rng.randint(0, 2)):
        letters[rng.randrange(len(letters))] = (SING, rng.randint(1, n - 1))
    rng.shuffle(letters)
    return OrderedSingularLink(SingularBraidWord(n, tuple(letters)))


def test_weight_sums_match_oracle_on_7_to_12_strands():
    # Permutations packed into up to twelve 11-bit digits, moved and
    # peeled at every position.  Ten mixed-sign words per ring, then ten
    # one-sign words per ring.
    rng = random.Random(909)
    rings = (R, CONWAY, gf(2), gf(3))
    mixed = [wide_singular(rng) for _ in range(40)]
    one_sign = [wide_singular(rng, one_sign=True) for _ in range(40)]
    wide = cancelling = 0
    for at, link in enumerate(mixed + one_sign):
        word = link.word
        n, kept, delta_pow = engine._simplify(word.strands, word.letters)
        if at < 40:
            # Letters gone beyond the kinks (a letter and a strand each)
            # and the free strands (delta_pow) went in cancelling pairs.
            cancelling += len(kept) < len(word.letters) - (word.strands - n - delta_pow)
        else:
            wide += n >= 7
        ring = rings[at // 10 % 4]
        assert engine.weight_sums(word, ring) == reference_weight_sums(link, ring), link
    assert cancelling >= 20
    assert wide >= 20


def test_weight_sums_refuse_what_the_packed_key_cannot_hold():
    # s1 s1 s2 s2 ... keeps all 2100 strands through simplification, more
    # than the 11-bit digits of a packed permutation hold; 65536 singular
    # letters overflow the 16-bit grade.  Both refuse before any pass.
    doubled = " ".join(f"s{i} s{i}" for i in range(1, 2100))
    with pytest.raises(BoundError, match="2100 strands exceeds the bound 2048"):
        engine.weight_sums(parse_word(f"2100: {doubled}"), R)
    deep = SingularBraidWord(2, ((SING, 1),) * 65536)
    with pytest.raises(BoundError, match="65536 singular crossings exceeds the bound 65535"):
        engine.weight_sums(deep, R)


@pytest.mark.parametrize("ring", [GENERIC, CONWAY, gf(2), gf(3), gf(5)], ids=lambda ring: ring.name)
def test_skein_steps_are_the_packed_monomials(ring):
    # _Pass packs its steps and delta by arithmetic; they are the ring's
    # own monomials and delta, packed.
    run = engine._Pass(ring, {})
    monomials = ((1, 1, 1), (1, 2, 0), (-1, -1, 1), (1, -2, 0))
    assert run.steps == tuple(pair for m in monomials for pair in engine._pack(ring.monomial(*m)))
    assert run.delta == engine._pack(ring.delta)


def inverse_runs(n, *tops):
    return parse_word(f"{n}: " + " ".join(f"s{i}^-1" for top in tops for i in range(1, top)))


def test_work_bound_refuses_the_widest_default_words():
    # Greedy 24- and 23-letter words whose Hecke state grows fastest: they
    # answered after 3 s and 12 s before the pass had a work bound.
    for word in (inverse_runs(10, 10, 9, 8), inverse_runs(13, 13, 12)):
        with pytest.raises(BoundError, match=f"bound of {engine.MAX_WORK} terms"):
            homfly(word, R)
        with pytest.raises(BoundError):
            engine.weight_sums(word, R)


def test_work_count_of_the_13_strand_pin(monkeypatch):
    # s1 s1 ... s12 s12, a chain of twelve Hopf links, makes exactly 12,285
    # terms in act, pass and trace expansions together; a permutation
    # fixing the top strand adds none.
    pin = parse_word("13: " + " ".join(f"s{i} s{i}" for i in range(1, 13)))
    monkeypatch.setattr(engine, "MAX_WORK", 12_285)
    chain = R.one
    for _ in range(12):
        chain = chain * HOPF_VALUE
    assert homfly(pin, R) == chain
    monkeypatch.setattr(engine, "MAX_WORK", 12_284)
    with pytest.raises(BoundError, match="bound of 12284 terms"):
        homfly(pin, R)


STRUCTURED = parse_word("5: " + " ".join(["s1 s2 s3 s4"] * 6))
D10 = parse_link("5: t1 s2 t3 s4^-1 t2 s1^-1 t4 s3 t1 s2^-1 t3 s4 t2 s1 t4 s3^-1 t1 t2 s2 s1")


def packed_run(word, ring):
    run = engine._Pass(ring, {})
    return engine._packed_sums(word, ring, run), run


def test_trace_fill_batches_each_level(monkeypatch):
    # One expansion and contraction per permutation would make 164 act
    # and 152 contract calls in the fill of (s1 s2 s3 s4)^6.  Batched, a
    # level on n strands makes one act per letter of each group of
    # permutations, at most (n - 1)(n - 2)/2, and one contract.
    fill = []
    inside = []

    def spy(name):
        method = getattr(engine._Pass, name)

        def wrapper(self, *args):
            if name == "tabulate":
                inside.append(True)
                try:
                    return method(self, *args)
                finally:
                    inside.pop()
            if inside:
                fill.append((name, args[-1]))
            return method(self, *args)

        monkeypatch.setattr(engine._Pass, name, wrapper)

    for name in ("tabulate", "_expand", "act", "contract"):
        spy(name)
    _, run = packed_run(STRUCTURED, R)
    assert (run.work, len(run.table)) == (2_691, 153)
    names = [name for name, _ in fill]
    assert (names.count("act"), names.count("contract")) == (10, 4)
    levels = [n for name, n in fill if name == "_expand"]
    assert levels == [5, 4, 3, 2]
    acts = dict.fromkeys(levels, 0)
    for name, n in fill:
        if name == "_expand":
            level = n
        elif name == "act":
            acts[level] += 1
    assert all(acts[n] <= (n - 1) * (n - 2) // 2 for n in levels), acts


def test_work_count_of_the_d10_graded_pass():
    # The graded pass of the d = 10 word, its trace expansions included,
    # started at its cheapest rotation (19,623 terms at rotation 0).
    _, run = packed_run(D10.word, R)
    assert run.work == 13_077


def test_zeros_left_in_the_state_move_no_count():
    # Over the integers act returns the dict it built, so g_2 g_2^(-1)
    # leaves zero coefficients where t x T_w and -t x T_w meet, on
    # permutations that no other term holds.  A singular letter's copy,
    # the next act, the fill and contract skip them: each gives the same
    # table, sums and work as on the canonical copy.  GF(p) still reduces
    # once per letter.
    start = {engine._ZERO | sum(k << engine._WIDTH * k for k in range(4)) << engine._OW: 1}
    for ring in (R, CONWAY, gf(5)):
        run = engine._Pass(ring, {})
        state = start
        for kind, i in ((POS, 1), (NEG, 3), (POS, 2), (POS, 2), (NEG, 2)):
            state = run.act(state, kind, i)
        canonical = _canonical(state, ring.p)
        assert (state != canonical) == (ring.p is None), ring
        results = []
        for s in (state, canonical):
            run = engine._Pass(ring, {})
            run.tabulate(s, 4)
            sums = run.contract(s, 1)
            out = run.act(run.act(s, SING, 1), NEG, 3)
            run.tabulate(out, 4)
            results.append((run.table, sums, run.contract(out, 2), run.work))
        assert results[0] == results[1], ring


def test_every_rotation_gives_the_same_weight_sums(monkeypatch):
    # The trace is cyclic, so the graded pass may start anywhere; each
    # rotation of a simplified singular word, run as it stands, gives
    # the sums of the rotation _packed_sums picks.
    rng = random.Random(2417)
    words = [D10.word]
    for _ in range(4):
        d = rng.randint(1, 4)
        words.append(random_word(rng, strands=rng.randint(3, 6), classical=14 - d, sing=d).word)
    simplified = []
    for word in words:
        n, letters, _ = engine._simplify(word.strands, word.letters)
        assert n > 1 and any(kind == SING for kind, _ in letters)
        simplified.append(SingularBraidWord(n, letters))
    d10 = simplified[0]
    assert engine._cheapest_rotation(d10.strands, d10.letters) != d10.letters
    for ring in (R, CONWAY, gf(5)):
        expected = [engine._packed_sums(word, ring) for word in simplified]
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_cheapest_rotation", lambda n, letters: letters)
            for word, sums in zip(simplified, expected):
                letters = word.letters
                for start in range(len(letters)):
                    rotated = SingularBraidWord(word.strands, letters[start:] + letters[:start])
                    assert engine._packed_sums(rotated, ring) == sums, (word, start)


@pytest.mark.parametrize("labels", [2, 3])
def test_chunked_fill_matches(monkeypatch, labels):
    # No pinned input fills a level of more than 65,536 permutations;
    # forced into small chunks, the fill gives the same values and work
    # counts.
    rng = random.Random(919)
    words = [parse_word("13: " + " ".join(f"s{i} s{i}" for i in range(1, 13)))]
    words += [wide_singular(rng).word for _ in range(6)]
    words += [wide_singular(rng, one_sign=True).word for _ in range(3)]
    for ring in (R, CONWAY, gf(5)):
        expected = [packed_run(word, ring) for word in words]
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_LABELS", labels)
            for word, (sums, run) in zip(words, expected):
                got, got_run = packed_run(word, ring)
                assert (got, got_run.work, got_run.table) == (sums, run.work, run.table), word


def test_shared_table_across_strand_counts():
    # The resolutions simplify to 2, 3, 4 and 5 strands, so one table
    # holds packed permutations of four lengths; no two may collide.
    link = parse_link("5: s1 t2 s3 t4 s1 s2 s3 s4 t1")
    words = {bits: resolve_all(link, bits) for bits in all_patterns(link.d)}
    assert {engine._simplify(w.strands, w.letters)[0] for w in words.values()} == {2, 3, 4, 5}
    for ring in (R, CONWAY, gf(5)):
        fresh = {bits: homfly(word, ring) for bits, word in words.items()}
        assert eval_vector(link, ring) == fresh
        cache: dict = {}
        for bits, word in reversed(words.items()):
            assert homfly(word, ring, cache=cache) == fresh[bits], bits


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
