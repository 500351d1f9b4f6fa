"""Singular braid words and ordered singular links.

A word lives on a fixed number of strands.  Letters act on adjacent
strand positions i, i+1 and come in three kinds: a positive crossing
``s<i>``, a negative crossing ``s<i>^-1``, and a rigid singular
crossing ``t<i>`` (which has no inverse).  The link under study is the
braid closure.  An ordered singular link additionally labels its
singular crossings 1..d; by default labels follow the order in which
the ``t`` letters occur in the word.

Text grammar::

    word    := nat ":" letter*          e.g.  "3: s1 s2^-1 t1"
    letter  := ("s" | "t") nat ("^-1")?
    link    := word ("|" "o" "=" nat*)?  optional label permutation
    nat     := [0-9]+                     ASCII digits only

Everything here is immutable; operations return new values.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import product

from .errors import ParseError, PreconditionError

__all__ = [
    "POS",
    "NEG",
    "SING",
    "SingularBraidWord",
    "OrderedSingularLink",
    "parse_word",
    "parse_link",
    "resolve_all",
    "connected_sum",
    "split_union",
    "reorder",
    "permute_bits",
    "all_patterns",
    "components_unionfind",
    "X",
    "Y",
    "Y_PRIME",
    "UNKNOT",
]

POS, NEG, SING = 1, -1, 0

Letter = tuple[int, int]


class _Value:
    """An immutable value compared, hashed and shown by its ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class SingularBraidWord(_Value):
    """A word on ``strands`` strands; ``letters`` is a tuple of (kind, index)."""

    __slots__ = ("strands", "letters")
    _fields = __slots__

    def __init__(self, strands: int, letters: Iterable[Letter] = ()):
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        clean = tuple((int(k), int(i)) for k, i in letters)
        for kind, i in clean:
            if kind not in (POS, NEG, SING):
                raise ValueError(f"unknown letter kind {kind}")
            if not 1 <= i <= strands - 1:
                raise ValueError(
                    f"letter index {i} out of range for {strands} strands"
                )
        self._set(strands=strands, letters=clean)

    @property
    def sing_count(self) -> int:
        return sum(1 for kind, _ in self.letters if kind == SING)

    @property
    def is_classical(self) -> bool:
        return all(kind != SING for kind, _ in self.letters)

    def components(self) -> int:
        """Number of components of the braid closure: cycles of the strand permutation."""
        arr = list(range(self.strands))  # arr[position] = strand, 0-based
        for _, i in self.letters:
            arr[i - 1], arr[i] = arr[i], arr[i - 1]
        seen = [False] * self.strands
        count = 0
        for s in range(self.strands):
            if seen[s]:
                continue
            count += 1
            while not seen[s]:
                seen[s] = True
                s = arr[s]
        return count

    def render(self) -> str:
        head = f"{self.strands}:"
        if not self.letters:
            return head
        return head + " " + " ".join(_letter_str(l) for l in self.letters)

    def __str__(self) -> str:
        return self.render()


def _letter_str(letter: Letter) -> str:
    kind, i = letter
    if kind == POS:
        return f"s{i}"
    if kind == NEG:
        return f"s{i}^-1"
    return f"t{i}"


class OrderedSingularLink(_Value):
    """A singular braid word plus labels on its singular crossings.

    ``ordering[j]`` is the label (1-based) carried by the j-th singular
    letter in word order; None means occurrence order.
    """

    __slots__ = ("word", "ordering")
    _fields = __slots__

    def __init__(self, word: SingularBraidWord, ordering: Iterable[int] | None = None):
        d = word.sing_count
        if ordering is None:
            labels = tuple(range(1, d + 1))
        else:
            labels = tuple(int(v) for v in ordering)
        if sorted(labels) != list(range(1, d + 1)):
            raise ValueError(f"ordering must be a permutation of 1..{d}, got {labels}")
        self._set(word=word, ordering=labels)

    @property
    def d(self) -> int:
        return self.word.sing_count

    def components(self) -> int:
        return self.word.components()

    def render(self) -> str:
        text = self.word.render()
        if self.ordering != tuple(range(1, self.d + 1)):
            text += " | o = " + " ".join(str(v) for v in self.ordering)
        return text

    def __str__(self) -> str:
        return self.render()


# Numbers are ASCII digits only: \d and str.isdigit also match other
# scripts' digits (read as values) and superscripts like "²" (which int()
# rejects).
_HEAD_RE = re.compile(r"([0-9]+):")
_LETTER_RE = re.compile(r"([st])([0-9]+)(\^-1)?")


def _is_nat(tok: str) -> bool:
    return tok.isascii() and tok.isdigit()


def parse_link(text: str) -> OrderedSingularLink:
    """Parse the full grammar, including the optional label suffix."""
    head_part, bar, tail_part = text.partition("|")
    tokens = [(m.group(0), m.start()) for m in re.finditer(r"\S+", head_part)]
    if not tokens:
        raise ParseError("expected a strand count like '3:'", 0)

    tok, off = tokens[0]
    rest = tokens[1:]
    m = _HEAD_RE.fullmatch(tok)
    if m is None:
        # Allow the colon as a separate token.
        if _is_nat(tok) and rest and rest[0][0] == ":":
            m_strands = int(tok)
            rest = rest[1:]
        else:
            raise ParseError(f"expected a strand count like '3:', got {tok!r}", off)
    else:
        m_strands = int(m.group(1))
    if m_strands < 1:
        raise ParseError("strand count must be at least 1", off)

    letters: list[Letter] = []
    for tok, off in rest:
        lm = _LETTER_RE.fullmatch(tok)
        if lm is None:
            raise ParseError(f"bad letter {tok!r}", off)
        sym, num, inv = lm.group(1), int(lm.group(2)), lm.group(3)
        if not 1 <= num <= m_strands - 1:
            raise ParseError(
                f"letter index {num} out of range for {m_strands} strands", off
            )
        if sym == "t":
            if inv:
                raise ParseError("singular crossings are unsigned; 't' takes no ^-1", off)
            letters.append((SING, num))
        else:
            letters.append((NEG, num) if inv else (POS, num))

    word = SingularBraidWord(m_strands, tuple(letters))

    ordering: tuple[int, ...] | None = None
    if bar:
        base = len(head_part) + 1
        suffix = [(m.group(0), base + m.start()) for m in re.finditer(r"\S+", tail_part)]
        if len(suffix) < 2 or suffix[0][0] != "o" or suffix[1][0] != "=":
            pos = suffix[0][1] if suffix else base
            raise ParseError("label suffix must look like '| o = 2 1 3'", pos)
        labels = []
        for tok, off in suffix[2:]:
            if not _is_nat(tok):
                raise ParseError(f"labels must be positive integers, got {tok!r}", off)
            labels.append(int(tok))
        d = word.sing_count
        if sorted(labels) != list(range(1, d + 1)):
            pos = suffix[2][1] if len(suffix) > 2 else base
            raise ParseError(f"labels must be a permutation of 1..{d}", pos)
        ordering = tuple(labels)

    return OrderedSingularLink(word, ordering)


def parse_word(text: str) -> SingularBraidWord:
    """Parse a word, ignoring any label suffix."""
    return parse_link(text).word


# -- resolutions ----------------------------------------------------


def all_patterns(d: int) -> Iterator[tuple[int, ...]]:
    """All resolution patterns of length d, in lexicographic order."""
    return product((0, 1), repeat=d)


def resolve_all(link: OrderedSingularLink, bits: Sequence[int]) -> SingularBraidWord:
    """Resolve every singular crossing: the one labeled k follows bits[k-1].

    Bit 0 removes the crossing (oriented smoothing); bit 1 replaces it
    by a negative crossing at the same position.
    """
    bits = tuple(int(b) for b in bits)
    if len(bits) != link.d or any(b not in (0, 1) for b in bits):
        raise PreconditionError(
            f"need {link.d} resolution bits in {{0,1}}, got {bits}"
        )
    out: list[Letter] = []
    occ = 0
    for kind, i in link.word.letters:
        if kind == SING:
            label = link.ordering[occ]
            occ += 1
            if bits[label - 1] == 1:
                out.append((NEG, i))
        else:
            out.append((kind, i))
    return SingularBraidWord(link.word.strands, tuple(out))


# -- products and relabeling -----------------------------------------


def connected_sum(a: OrderedSingularLink, b: OrderedSingularLink) -> OrderedSingularLink:
    """Band-join the two closures through one shared strand.

    b's word moves onto strands n1..n1+n2-1 and is appended; a's labels
    stay, b's shift up by a.d.  The closure has comp(a)+comp(b)-1
    components.
    """
    n1 = a.word.strands
    shift = n1 - 1
    letters = a.word.letters + tuple((k, i + shift) for k, i in b.word.letters)
    word = SingularBraidWord(n1 + b.word.strands - 1, letters)
    ordering = a.ordering + tuple(label + a.d for label in b.ordering)
    return OrderedSingularLink(word, ordering)


def split_union(a: OrderedSingularLink, b: OrderedSingularLink) -> OrderedSingularLink:
    """Place the two closures side by side on disjoint strands."""
    n1 = a.word.strands
    letters = a.word.letters + tuple((k, i + n1) for k, i in b.word.letters)
    word = SingularBraidWord(n1 + b.word.strands, letters)
    ordering = a.ordering + tuple(label + a.d for label in b.ordering)
    return OrderedSingularLink(word, ordering)


def reorder(link: OrderedSingularLink, w: Sequence[int]) -> OrderedSingularLink:
    """Relabel singular crossings: the one labeled k becomes w[k-1]."""
    w = tuple(int(v) for v in w)
    if sorted(w) != list(range(1, link.d + 1)):
        raise PreconditionError(f"w must be a permutation of 1..{link.d}, got {w}")
    return OrderedSingularLink(
        link.word, tuple(w[label - 1] for label in link.ordering)
    )


def permute_bits(bits: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """Push a pattern through a relabeling: slot w[k-1] receives bits[k-1]."""
    out = [0] * len(bits)
    for k, b in enumerate(bits):
        out[w[k] - 1] = b
    return tuple(out)


# -- independent component count --------------------------------------


def components_unionfind(word: SingularBraidWord) -> int:
    """Component count by union-find over strand arcs.

    An independent cross-check of :meth:`SingularBraidWord.components`;
    the tests compare the two.
    """
    n, m = word.strands, len(word.letters)
    parent = list(range(n * (m + 1)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: int, v: int) -> None:
        parent[find(u)] = find(v)

    def node(pos: int, level: int) -> int:
        return level * n + (pos - 1)

    for level, (_, i) in enumerate(word.letters):
        union(node(i, level), node(i + 1, level + 1))
        union(node(i + 1, level), node(i, level + 1))
        for p in range(1, n + 1):
            if p != i and p != i + 1:
                union(node(p, level), node(p, level + 1))
    for p in range(1, n + 1):
        union(node(p, m), node(p, 0))
    return len({find(v) for v in range(n * (m + 1))})


def random_word(
    rng,
    *,
    strands: int,
    classical: int,
    sing: int = 0,
    shuffle_labels: bool = False,
) -> OrderedSingularLink:
    """A random ordered link: ``classical`` crossing letters plus ``sing`` rigid ones.

    ``rng`` is a ``random.Random``; this module does not import ``random``,
    which only the check suites and the tests use.
    """
    if strands < 2 and (classical or sing):
        raise ValueError("letters need at least two strands")
    letters: list[Letter] = []
    for _ in range(classical):
        letters.append((rng.choice((POS, NEG)), rng.randint(1, strands - 1)))
    for _ in range(sing):
        letters.append((SING, rng.randint(1, strands - 1)))
    rng.shuffle(letters)
    ordering: Iterable[int] | None = None
    if shuffle_labels and sing:
        labels = list(range(1, sing + 1))
        rng.shuffle(labels)
        ordering = tuple(labels)
    return OrderedSingularLink(SingularBraidWord(strands, tuple(letters)), ordering)


# Canonical small links: the two singular generators, the variant with a
# negative clasp, and the unknot.
X = parse_link("2: t1")
Y = parse_link("2: t1 s1")
Y_PRIME = parse_link("2: t1 s1^-1")
UNKNOT = parse_link("1:")
