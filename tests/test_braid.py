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


# Every ParseError branch of parse_link, with its message and position:
# the head, the letters, then the label suffix.
PARSE_ERRORS = [
    ("", "expected a strand count like '3:'", 0),
    ("   ", "expected a strand count like '3:'", 0),
    ("| o = 1", "expected a strand count like '3:'", 0),
    ("x: s1", "expected a strand count like '3:', got 'x:'", 0),
    ("  x: s1", "expected a strand count like '3:', got 'x:'", 2),
    ("3 s1", "expected a strand count like '3:', got '3'", 0),
    ("3:s1", "expected a strand count like '3:', got '3:s1'", 0),
    ("0:", "strand count must be at least 1", 0),
    (" 0 : s1", "strand count must be at least 1", 1),
    ("00:", "strand count must be at least 1", 0),
    ("3: : s1", "bad letter ':'", 3),
    ("2: s1 zap", "bad letter 'zap'", 6),
    ("3 : s1 s2^-2", "bad letter 's2^-2'", 7),
    ("3: s1 t", "bad letter 't'", 6),
    ("3: S1", "bad letter 'S1'", 3),
    ("2: s\u0661", "bad letter 's\u0661'", 3),
    ("2: s5", "letter index 5 out of range for 2 strands", 3),
    ("2: s0", "letter index 0 out of range for 2 strands", 3),
    # The first of two equal tokens is the one refused.
    ("3: s1 s4 s2 s4", "letter index 4 out of range for 3 strands", 6),
    ("4: t1 s3^-1 s4^-1", "letter index 4 out of range for 4 strands", 12),
    # The index is checked before the sign of a singular letter.
    ("2: t3^-1", "letter index 3 out of range for 2 strands", 3),
    ("2: t1^-1", "singular crossings are unsigned; 't' takes no ^-1", 3),
    ("3: s1 t2 t2^-1", "singular crossings are unsigned; 't' takes no ^-1", 9),
    ("2: t1 | order 1", "label suffix must look like '| o = 2 1 3'", 8),
    ("2: t1 |", "label suffix must look like '| o = 2 1 3'", 7),
    ("2: t1 | o 1", "label suffix must look like '| o = 2 1 3'", 8),
    ("2: t1 |o= 1", "label suffix must look like '| o = 2 1 3'", 7),
    ("2: t1 | o = a", "labels must be positive integers, got 'a'", 12),
    ("3: t1 t2 | o = 1 -2", "labels must be positive integers, got '-2'", 17),
    ("2: t1 | o = \u00b2", "labels must be positive integers, got '\u00b2'", 12),
    ("2: t1 | o = 2", "labels must be a permutation of 1..1", 12),
    ("3: t1 t2 | o =", "labels must be a permutation of 1..2", 10),
    ("3: t1 t2 | o = 1 1", "labels must be a permutation of 1..2", 15),
    ("2: s1 | o = 1", "labels must be a permutation of 1..0", 12),
]


def test_parse_errors_carry_positions():
    for text, message, position in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_link(text)
        assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position), text


def test_parse_matches_generated_letters():
    # Texts written from known letters and labels, with varied
    # whitespace, the split "3 : s1" head and an optional suffix, parse
    # back to exactly those letters and labels.
    rng = random.Random(5)
    spellings = {POS: "s{}", NEG: "s{}^-1", SING: "t{}"}

    def gap():
        return rng.choice((" ", "  ", "\t", "\n "))

    for _ in range(500):
        strands = rng.randint(1, 12)
        letters = tuple(
            (rng.choice((POS, NEG, SING)), rng.randint(1, strands - 1))
            for _ in range(rng.randint(0, 24) if strands > 1 else 0)
        )
        d = sum(1 for kind, _ in letters if kind == SING)
        labels = list(range(1, d + 1))
        rng.shuffle(labels)
        text = rng.choice(("", " ")) + str(strands) + rng.choice((":", " :", "  :")) + gap()
        text += gap().join(spellings[kind].format(i) for kind, i in letters)
        suffix = rng.random() < 0.5
        if suffix:
            text += gap() + "|" + gap() + "o" + gap() + "=" + gap() + gap().join(map(str, labels))
        link = parse_link(text)
        assert (link.word.strands, link.word.letters) == (strands, letters), text
        assert link.ordering == (tuple(labels) if suffix else tuple(range(1, d + 1))), text
        assert link.d == link.word.sing_count == d, text
        assert link == OrderedSingularLink(SingularBraidWord(strands, letters), link.ordering)


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
