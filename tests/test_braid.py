"""Words, parsing, closures, resolutions, and the two products."""

import copy
import pickle
import random

import pytest

from skeinforge import (
    NEG,
    POS,
    SING,
    UNKNOT,
    X,
    Y,
    OrderedSingularLink,
    ParseError,
    SingularBraidWord,
    all_patterns,
    components_unionfind,
    connected_sum,
    parse_link,
    parse_word,
    permute_bits,
    reorder,
    resolve_all,
    split_union,
)
from skeinforge.braid import random_word
from skeinforge.errors import PreconditionError


# -- parsing -------------------------------------------------------------


def test_parse_pinned():
    w = parse_word("2: s1")
    assert (w.strands, w.letters) == (2, ((POS, 1),))
    w = parse_word("2: t1 s1")
    assert (w.strands, w.letters) == (2, ((SING, 1), (POS, 1)))
    w = parse_word("3: s1 s2^-1 t1")
    assert (w.strands, w.letters) == (3, ((POS, 1), (NEG, 2), (SING, 1)))
    # The colon may stand as a token of its own.
    assert parse_link("3 : s1") == parse_link("3: s1")


def test_parse_empty_word():
    w = parse_word("4:")
    assert (w.strands, w.letters) == (4, ())


def test_parse_ordering_suffix():
    link = parse_link("3: t1 t2 | o = 2 1")
    assert link.ordering == (2, 1)
    assert parse_link("3: t1 t2").ordering == (1, 2)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_word("2: s1 zap")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("x: s1")
    with pytest.raises(ParseError):
        parse_word("0:")
    with pytest.raises(ParseError):
        parse_word("2: s5")  # index out of range
    with pytest.raises(ParseError):
        parse_word("2: t1^-1")  # singular crossings are unsigned
    with pytest.raises(ParseError):
        parse_link("2: t1 | o = 2")  # not a permutation of 1..1
    with pytest.raises(ParseError):
        parse_link("2: t1 | order 1")


def test_render_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        link = random_word(
            rng,
            strands=rng.randint(2, 5),
            classical=rng.randint(0, 6),
            sing=rng.randint(0, 3),
            shuffle_labels=True,
        )
        assert parse_link(link.render()) == link
    assert parse_link(UNKNOT.render()) == UNKNOT
    assert UNKNOT.render() == "1:"
    assert parse_link("3: t1 t2 | o = 2 1").render() == "3: t1 t2 | o = 2 1"


def test_word_validation():
    with pytest.raises(ValueError, match="^a braid needs at least one strand$"):
        SingularBraidWord(0, ())
    with pytest.raises(ValueError, match="^letter index 2 out of range for 2 strands$"):
        SingularBraidWord(2, ((POS, 2),))
    with pytest.raises(ValueError, match="^unknown letter kind 5$"):
        SingularBraidWord(2, ((5, 1),))
    with pytest.raises(ValueError, match=r"^ordering must be a permutation of 1\.\.1, got \(2,\)$"):
        OrderedSingularLink(parse_word("2: t1"), (2,))
    with pytest.raises(ValueError, match="^letters need at least two strands$"):
        random_word(random.Random(0), strands=1, classical=0, sing=1)
    # Words and links are immutable values; list letters and labels are
    # normalized to tuples.
    word = SingularBraidWord(2, [[POS, 1]])
    assert word.letters == ((POS, 1),)
    assert repr(word) == "SingularBraidWord(strands=2, letters=((1, 1),))"
    assert word == SingularBraidWord(strands=2, letters=((POS, 1),))
    assert hash(word) == hash(parse_word("2: s1"))
    assert word != SingularBraidWord(2, ((NEG, 1),))
    assert word != (2, ((POS, 1),))
    link = parse_link("3: t1 t2 | o = 2 1")
    assert link.ordering == (2, 1)
    assert OrderedSingularLink(link.word, [2, 1]) == link
    assert hash(OrderedSingularLink(link.word, [2, 1])) == hash(link)
    assert link != OrderedSingularLink(link.word)
    assert repr(link) == (
        "OrderedSingularLink(word=SingularBraidWord(strands=3, letters=((0, 1), (0, 2))), ordering=(2, 1))"
    )
    assert len({word, parse_word("2: s1"), link, parse_link("3: t1 t2 | o = 2 1")}) == 2
    with pytest.raises(AttributeError, match="cannot assign to field 'strands'"):
        word.strands = 3
    with pytest.raises(AttributeError):
        link.ordering = (1, 2)
    with pytest.raises(AttributeError):
        del word.letters
    with pytest.raises(AttributeError):
        word.extra = 1
    assert pickle.loads(pickle.dumps(link)) == link
    assert copy.deepcopy(word) == word


# -- closure components ----------------------------------------------------


def test_components_pinned():
    assert parse_word("5:").components() == 5
    assert X.components() == 1
    assert Y.components() == 2


def test_components_against_unionfind():
    rng = random.Random(23)
    for _ in range(100):
        link = random_word(
            rng,
            strands=rng.randint(2, 5),
            classical=rng.randint(0, 8),
            sing=rng.randint(0, 3),
        )
        assert link.word.components() == components_unionfind(link.word)


# -- resolutions -----------------------------------------------------------


def test_resolve_all_pinned():
    assert resolve_all(X, (0,)) == parse_word("2:")
    assert resolve_all(X, (1,)) == parse_word("2: s1^-1")
    assert resolve_all(Y, (1,)) == parse_word("2: s1^-1 s1")
    assert resolve_all(Y, (0,)) == parse_word("2: s1")


def test_resolve_all_respects_labels():
    link = parse_link("3: t1 t2 | o = 2 1")
    # bit for label 1 applies to the second occurrence (t2).
    assert resolve_all(link, (1, 0)) == parse_word("3: s2^-1")
    assert resolve_all(link, (0, 1)) == parse_word("3: s1^-1")


def test_resolve_all_validates_length():
    with pytest.raises(PreconditionError):
        resolve_all(X, (0, 1))
    with pytest.raises(PreconditionError):
        resolve_all(X, (2,))


# -- products ----------------------------------------------------------------


def test_connected_sum_pinned():
    xy = connected_sum(X, Y)
    assert xy.word == parse_word("3: t1 t2 s2")
    assert xy.ordering == (1, 2)
    assert xy.components() == 1 + 2 - 1


def test_split_union_pinned():
    assert split_union(UNKNOT, UNKNOT).word == parse_word("2:")
    assert split_union(X, Y).components() == 1 + 2


def test_products_are_word_level_associative():
    rng = random.Random(9)
    for _ in range(25):
        links = [
            random_word(rng, strands=2, classical=rng.randint(0, 3), sing=rng.randint(0, 1))
            for _ in range(3)
        ]
        a, b, c = links
        assert connected_sum(connected_sum(a, b), c) == connected_sum(a, connected_sum(b, c))
        assert split_union(split_union(a, b), c) == split_union(a, split_union(b, c))


def test_component_arithmetic_of_products():
    rng = random.Random(31)
    for _ in range(50):
        a = random_word(rng, strands=rng.randint(2, 4), classical=rng.randint(0, 6))
        b = random_word(rng, strands=rng.randint(2, 4), classical=rng.randint(0, 6))
        assert connected_sum(a, b).components() == a.components() + b.components() - 1
        assert split_union(a, b).components() == a.components() + b.components()


# -- relabeling ---------------------------------------------------------------


def test_reorder_identity_and_inverse():
    link = parse_link("3: t1 t2 t1 | o = 3 1 2")
    d = link.d
    identity = tuple(range(1, d + 1))
    assert reorder(link, identity) == link
    w = (2, 3, 1)
    w_inv = (3, 1, 2)
    assert reorder(reorder(link, w), w_inv) == link
    with pytest.raises(PreconditionError):
        reorder(link, (1, 2))


def test_permute_bits():
    w = (2, 3, 1)  # label k becomes w[k-1]
    assert permute_bits((1, 0, 0), w) == (0, 1, 0)
    for bits in all_patterns(3):
        moved = permute_bits(bits, w)
        for k in range(3):
            assert moved[w[k] - 1] == bits[k]
