"""Seeded randomized verification suites, shared by the CLI and the tests.

Each suite draws its cases from a ``random.Random(seed)`` stream, so a
report is reproducible from its seed.  Most identities are checked over
the generic integer mode: exact equality there implies equality in
every specialization.  The suites that are specifically about other
modes (skein, lemma22, specialize) run those modes natively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .braid import (
    NEG,
    POS,
    SING,
    UNKNOT,
    OrderedSingularLink,
    SingularBraidWord,
    connected_sum,
    permute_bits,
    random_word,
    reorder,
    split_union,
)
from .engine import homfly
from .oracle import homfly_reference
from .rings import CONWAY, GENERIC, gf, specialize_scalar
from .skein import (
    SkeinPolynomial,
    invariant,
    invariant_ordered,
    project_unordered,
    star,
)

__all__ = ["SuiteReport", "SUITE_NAMES", "run_suite", "run_suites"]

_MODES = (GENERIC, CONWAY, gf(5))


@dataclass
class SuiteReport:
    name: str
    cases: int
    failures: int
    seed: int
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def format(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = f"suite {self.name}: {self.cases} cases, {self.failures} failures (seed {self.seed}) {status}"
        if self.counterexample:
            line += f"\n  first counterexample: {self.counterexample}"
        return line


# -- random word construction ------------------------------------------


def _segment(rng: random.Random, strands: int, count: int, sing_left: int):
    """Random letters with ``sing_left`` as a budget of singular crossings.

    Each singular crossing gets a fresh identity object so that words
    sharing a segment agree on which point is which.
    """
    letters, ids = [], []
    for _ in range(count):
        i = rng.randint(1, strands - 1)
        if sing_left > 0 and rng.random() < 0.35:
            letters.append((SING, i))
            ids.append(object())
            sing_left -= 1
        else:
            letters.append((rng.choice((POS, NEG)), i))
    return letters, ids, sing_left


def _assemble(rng: random.Random, strands: int, pieces) -> tuple:
    """Stitch (letters, ids) pieces into ordered links with shared labels.

    Every piece list contributes its letters; identical id objects refer
    to the same singular point across the words being compared, so both
    words receive consistent labels even when occurrences were permuted.
    """
    words = []
    id_sets = []
    for piece in pieces:
        letters: list = []
        ids: list = []
        for seg_letters, seg_ids in piece:
            letters.extend(seg_letters)
            ids.extend(seg_ids)
        words.append(letters)
        id_sets.append(ids)
    distinct: list = []
    for pid in id_sets[0]:
        if pid not in distinct:
            distinct.append(pid)
    labels = list(range(1, len(distinct) + 1))
    rng.shuffle(labels)
    label_of = dict(zip(map(id, distinct), labels))
    links = []
    for letters, ids in zip(words, id_sets):
        ordering = tuple(label_of[id(pid)] for pid in ids)
        links.append(OrderedSingularLink(SingularBraidWord(strands, tuple(letters)), ordering))
    return tuple(links)


def _summands(rng: random.Random) -> tuple:
    """Two small links to combine, with up to two and one singular crossings."""
    return tuple(
        random_word(
            rng,
            strands=rng.randint(2, 3),
            classical=rng.randint(0, 4),
            sing=rng.randint(0, max_sing),
            shuffle_labels=True,
        )
        for max_sing in (2, 1)
    )


# -- individual suites --------------------------------------------------


def suite_skein(seed: int) -> SuiteReport:
    """x inv(L0) = t^(-1) inv(L+) - t inv(L-) at one varied crossing, all modes."""
    rng = random.Random(seed)
    for case in range(200):
        strands = rng.randint(2, 4)
        sing_budget = rng.randint(0, 2)
        u_letters, u_ids, sing_budget = _segment(rng, strands, rng.randint(0, 3), sing_budget)
        v_letters, v_ids, _ = _segment(rng, strands, rng.randint(0, 3), sing_budget)
        i = rng.randint(1, strands - 1)
        u, v = (u_letters, u_ids), (v_letters, v_ids)
        l_plus, l_minus, l_zero = _assemble(
            rng,
            strands,
            [
                [u, ([(POS, i)], []), v],
                [u, ([(NEG, i)], []), v],
                [u, v],
            ],
        )
        for ring in _MODES:
            e_plus = invariant_ordered(l_plus, ring)
            e_minus = invariant_ordered(l_minus, ring)
            e_zero = invariant_ordered(l_zero, ring)
            lhs = e_zero.scale(ring.x)
            rhs = e_plus.scale(ring.t_inv) - e_minus.scale(ring.t)
            if lhs != rhs or project_unordered(lhs) != project_unordered(rhs):
                return SuiteReport(
                    "skein",
                    case + 1,
                    1,
                    seed,
                    f"ring {ring.name}: L+ = {l_plus}, L- = {l_minus}, L0 = {l_zero}",
                )
    return SuiteReport("skein", case + 1, 0, seed)


def _move_pair(rng: random.Random, move: str):
    """Two ordered links that present the same singular link, per ``move``."""
    strands = rng.randint(4 if move == "distant" else 2, 4)
    if move in ("braid_rel", "mixed_triple") and strands < 3:
        strands = 3
    sing_budget = rng.randint(0, 2)
    u_letters, u_ids, sing_budget = _segment(rng, strands, rng.randint(0, 3), sing_budget)
    v_letters, v_ids, _ = _segment(rng, strands, rng.randint(0, 2), sing_budget)
    u, v = (u_letters, u_ids), (v_letters, v_ids)

    if move == "conjugation":
        g = (rng.choice((POS, NEG)), rng.randint(1, strands - 1))
        g_inv = (-g[0], g[1])
        pieces = [[u, v], [([g], []), u, v, ([g_inv], [])]]
        return _assemble(rng, strands, pieces)
    if move in ("stab_pos", "stab_neg"):
        kind = POS if move == "stab_pos" else NEG
        base = _assemble(rng, strands, [[u, v]])[0]
        wide = OrderedSingularLink(
            SingularBraidWord(strands + 1, base.word.letters + ((kind, strands),)),
            base.ordering,
        )
        return base, wide
    if move == "braid_rel":
        i = rng.randint(1, strands - 2)
        e = rng.choice((POS, NEG))
        mid1 = ([(e, i), (e, i + 1), (e, i)], [])
        mid2 = ([(e, i + 1), (e, i), (e, i + 1)], [])
        return _assemble(rng, strands, [[u, mid1, v], [u, mid2, v]])
    if move == "distant":
        ia = rng.randint(1, strands - 3)
        ib = rng.randint(ia + 2, strands - 1)
        def rand_letter(idx):
            kind = rng.choice((POS, NEG, SING))
            pid = object() if kind == SING else None
            return (kind, idx), pid
        a, ida = rand_letter(ia)
        b, idb = rand_letter(ib)
        mid1 = ([a, b], [pid for pid in (ida, idb) if pid is not None])
        mid2 = ([b, a], [pid for pid in (idb, ida) if pid is not None])
        return _assemble(rng, strands, [[u, mid1, v], [u, mid2, v]])
    if move == "mixed_comm":
        i = rng.randint(1, strands - 1)
        pid = object()
        mid1 = ([(SING, i), (POS, i)], [pid])
        mid2 = ([(POS, i), (SING, i)], [pid])
        return _assemble(rng, strands, [[u, mid1, v], [u, mid2, v]])
    if move == "mixed_triple":
        i = rng.randint(1, strands - 2)
        i, j = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
        pid = object()
        mid1 = ([(SING, i), (POS, j), (POS, i)], [pid])
        mid2 = ([(POS, j), (POS, i), (SING, j)], [pid])
        return _assemble(rng, strands, [[u, mid1, v], [u, mid2, v]])
    raise ValueError(f"unknown move {move}")


MARKOV_MOVES = (
    "conjugation",
    "stab_pos",
    "stab_neg",
    "braid_rel",
    "distant",
    "mixed_comm",
    "mixed_triple",
)


def suite_markov(seed: int) -> SuiteReport:
    """Ordered coordinates are unchanged by braid-presentation moves."""
    rng = random.Random(seed)
    total = 0
    for move in MARKOV_MOVES:
        for _ in range(200):
            total += 1
            a, b = _move_pair(rng, move)
            if invariant_ordered(a, GENERIC) != invariant_ordered(b, GENERIC):
                return SuiteReport("markov", total, 1, seed, f"{move}: {a}  vs  {b}")
    return SuiteReport("markov", total, 0, seed)


def _conjugated(rng: random.Random, link: OrderedSingularLink) -> OrderedSingularLink:
    """An alternative presentation: rotate the word, then conjugate.

    Both moves change which arc of the closure meets the band in a
    connected sum, so summing with this presentation attaches the band
    at a different site (possibly on a different component).
    """
    letters = list(link.word.letters)
    ordering = list(link.ordering)
    cut = rng.randint(0, len(letters)) if letters else 0
    sing_before = sum(1 for kind, _ in letters[:cut] if kind == SING)
    letters = letters[cut:] + letters[:cut]
    ordering = ordering[sing_before:] + ordering[:sing_before]
    n = link.word.strands
    if n >= 2:
        g = (rng.choice((POS, NEG)), rng.randint(1, n - 1))
        letters = [g] + letters + [(-g[0], g[1])]
    return OrderedSingularLink(SingularBraidWord(n, tuple(letters)), tuple(ordering))


def suite_star(seed: int) -> SuiteReport:
    """Connected sum multiplies coordinates; the unknot is the unit.

    Also resums through a rotated and conjugated presentation of the
    first factor, which moves the band to a different site; the
    coordinates must not notice.
    """
    rng = random.Random(seed)
    for case in range(100):
        l1, l2 = _summands(rng)
        e1 = invariant_ordered(l1, GENERIC)
        e2 = invariant_ordered(l2, GENERIC)
        joined = connected_sum(l1, l2)
        e_joined = invariant_ordered(joined, GENERIC)
        ok = e_joined == star(e1, e2)
        ok = ok and invariant(joined, GENERIC) == project_unordered(e1) * project_unordered(e2)
        ok = ok and invariant_ordered(connected_sum(UNKNOT, l1), GENERIC) == e1
        resummed = connected_sum(_conjugated(rng, l1), l2)
        ok = ok and invariant_ordered(resummed, GENERIC) == e_joined
        if not ok:
            return SuiteReport("star", case + 1, 1, seed, f"L1 = {l1}, L2 = {l2}")
    return SuiteReport("star", case + 1, 0, seed)


def suite_lemma22(seed: int) -> SuiteReport:
    """(t^(-1)-t) inv(sum) = x inv(stacked); the stacked product dies at t=1."""
    rng = random.Random(seed)
    for case in range(100):
        l1, l2 = _summands(rng)
        joined = invariant(connected_sum(l1, l2), GENERIC)
        stacked = invariant(split_union(l1, l2), GENERIC)
        if joined.scale(GENERIC.t_inv - GENERIC.t) != stacked.scale(GENERIC.x):
            return SuiteReport("lemma22", case + 1, 1, seed, f"L1 = {l1}, L2 = {l2}")
        conway_stacked = invariant(split_union(l1, l2), CONWAY)
        if not conway_stacked.is_zero:
            return SuiteReport(
                "lemma22", case + 1, 1, seed,
                f"conway mode: stacked product of {l1} and {l2} is nonzero",
            )
    return SuiteReport("lemma22", case + 1, 0, seed)


def suite_ordering(seed: int) -> SuiteReport:
    """Relabeling permutes coordinates and leaves the projection alone."""
    rng = random.Random(seed)
    for case in range(100):
        link = random_word(
            rng,
            strands=rng.randint(2, 3),
            classical=rng.randint(0, 4),
            sing=rng.randint(0, 3),
            shuffle_labels=True,
        )
        w = list(range(1, link.d + 1))
        rng.shuffle(w)
        w = tuple(w)
        base = invariant_ordered(link, GENERIC)
        moved = invariant_ordered(reorder(link, w), GENERIC)
        expected = {permute_bits(bits, w): c for bits, c in base.coords.items()}
        if moved.coords != expected or project_unordered(moved) != project_unordered(base):
            return SuiteReport("ordering", case + 1, 1, seed, f"L = {link}, w = {w}")
    return SuiteReport("ordering", case + 1, 0, seed)


def suite_specialize(seed: int) -> SuiteReport:
    """Generic invariants specialize to the natively computed ones."""
    rng = random.Random(seed)
    targets = (CONWAY, gf(5))
    for case in range(100):
        link = random_word(
            rng,
            strands=rng.randint(2, 3),
            classical=rng.randint(0, 5),
            sing=rng.randint(0, 2),
            shuffle_labels=True,
        )
        generic = invariant(link, GENERIC)
        for target in targets:
            mapped = SkeinPolynomial(
                target,
                {key: specialize_scalar(c, target) for key, c in generic.coeffs.items()},
            )
            native = invariant(link, target)
            if mapped != native:
                return SuiteReport(
                    "specialize", case + 1, 1, seed, f"L = {link}, target {target.name}"
                )
    return SuiteReport("specialize", case + 1, 0, seed)


def suite_oracle(seed: int = 0) -> SuiteReport:
    """Engine equals the naive expansion on every small classical closure."""
    count = 0
    for strands in (1, 2, 3):
        alphabet = [
            (kind, i) for i in range(1, strands) for kind in (POS, NEG)
        ]
        for length in range(0, 7):
            if length > 0 and not alphabet:
                continue
            for letters in product(alphabet, repeat=length):
                count += 1
                word = SingularBraidWord(strands, letters)
                if homfly(word, GENERIC) != homfly_reference(word, GENERIC):
                    return SuiteReport("oracle", count, 1, seed, f"word = {word}")
    return SuiteReport("oracle", count, 0, seed)


_SUITES = {
    "skein": suite_skein,
    "markov": suite_markov,
    "star": suite_star,
    "lemma22": suite_lemma22,
    "ordering": suite_ordering,
    "specialize": suite_specialize,
    "oracle": suite_oracle,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](seed)


def run_suites(names, seed: int) -> list[SuiteReport]:
    expanded = list(_SUITES) if "all" in names else list(names)
    return [run_suite(name, seed) for name in expanded]
