"""The command-line surface: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skeinforge
from skeinforge import braid, cli
from skeinforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- pinned text output ----------------------------------------------------


def test_invariant_generators(capsys):
    code, out, _ = run(capsys, "invariant", "2: t1")
    assert (code, out) == (0, "X\n")
    code, out, _ = run(capsys, "invariant", "--ring", "conway", "2: t1 s1^-1")
    assert (code, out) == (0, "Y - x X\n")
    code, out, _ = run(capsys, "invariant", "1:")
    assert (code, out) == (0, "1\n")


def test_homfly_text(capsys):
    code, out, _ = run(capsys, "homfly", "2: s1 s1 s1")
    assert (code, out) == (0, "-1 t^4 + 2 t^2 + 1 t^2 x^2\n")
    code, out, _ = run(capsys, "homfly", "2:")
    assert (code, out) == (0, "-1 t x^(-1) + 1 t^(-1) x^(-1)\n")


def test_ordered_output(capsys):
    code, out, _ = run(capsys, "invariant", "--ordered", "2: t1 s1^-1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "t^(-2) Y - t^(-1) x X"
    assert lines[1] == "a[0] = -1 t^(-1) x"
    assert lines[2] == "a[1] = 1 t^(-2)"


# -- exit codes --------------------------------------------------------------


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "invariant", "2: wat")
    assert code == 2 and "parse error" in err
    code, _, _ = run(capsys, "invariant", "--ring", "gf:6", "2: t1")
    assert code == 2
    code, _, _ = run(capsys, "invariant", "--ring", "nope", "2: t1")
    assert code == 2


def test_composite_modulus_passing_bases_below_41_is_a_parse_error(capsys):
    code, out, err = run(capsys, "invariant", "--ring", "gf:318665857834031151167461", "2: t1 s1^-1")
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "word", ["2: t1 | o = \u00b2", "\u00b2 : s1", "\u0662: s\u0661", "2: t1 | o = \u0661"]
)
def test_non_ascii_digits_are_parse_errors(capsys, word):
    # Superscripts and Arabic-Indic digits pass str.isdigit but are not
    # part of the grammar.
    code, out, err = run(capsys, "invariant", word)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--ring", "gf:\u0665", "2: t1"],
        ["invariant", "--ring", "gf:+5", "2: t1"],
        ["invariant", "--ring", "gf: 5", "2: t1"],
        ["invariant", "--max-sing", "\u0663", "2: t1"],
        ["invariant", "--max-sing", "+3", "2: t1"],
        ["invariant", "--max-crossings", " 24", "2: t1"],
        ["check", "star", "--seed", "-1"],
    ],
)
def test_numeric_flags_take_ascii_digits_only(capsys, argv):
    # int() accepts signs, spaces and any script's digits; the flags do not.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "unrecognized arguments" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--max-sing", "0", "2: t1"],
        ["invariant", "--max-crossings", "0", "2: t1"],
        ["homfly", "--max-crossings", "0", "2: s1"],
    ],
)
def test_zero_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "bounds must be at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--seed", "3", "2: t1"],
        ["homfly", "--max-sing", "3", "2: s1"],
        ["homfly", "--seed", "3", "2: s1"],
        ["check", "star", "--ring", "conway"],
        ["check", "star", "--max-crossings", "24"],
        ["check", "star", "--max-sing", "10"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err and "Traceback" not in err
    # The error names the unread flag, not the word its value displaced.
    assert next(a for a in argv if a.startswith("--")) in err
    if argv[0] != "check":
        assert argv[-1] not in err


def test_exit_code_bounds(capsys):
    code, _, err = run(capsys, "homfly", "--max-crossings", "2", "2: s1 s1 s1")
    assert code == 3 and "bound" in err
    code, _, _ = run(capsys, "invariant", "--max-sing", "1", "3: t1 t2")
    assert code == 3


@pytest.mark.parametrize("command", ["invariant", "homfly"])
@pytest.mark.parametrize("count", ["99999999999999999999", "2049"])
def test_strand_count_above_the_bound_is_exit_3(capsys, command, count):
    # Refused before any per-strand allocation, which a 20-digit count
    # could not even make.
    code, out, err = run(capsys, command, f"{count}: s1")
    assert (code, out) == (3, "")
    assert err == f"bound exceeded: {count} strands exceeds the bound 2048\n"


LONG = "1" * 5000


@pytest.mark.parametrize(
    "argv,err",
    [
        (["homfly", f"3: s{LONG}"], f"parse error: letter index {LONG} out of range for 3 strands (at position 3)\n"),
        (["homfly", f"{LONG}: s1"], f"parse error: strand count {LONG} has more than 4300 digits (at position 0)\n"),
        (["invariant", f"2: t1 | o = {LONG}"], "parse error: labels must be a permutation of 1..1 (at position 12)\n"),
    ],
)
def test_numerals_past_the_int_conversion_limit_are_parse_errors(capsys, argv, err):
    # int() and str() refuse more than 4,300 digits, so these are judged
    # by their text; the messages quote the numeral as written.
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv,last_line",
    [
        (["invariant", "--ring", f"gf:{LONG}", "2: t1"], f"parse error: --ring modulus must be below 3317044064679887385961981, got {LONG}"),
        (["check", "star", "--seed", LONG], "skeinforge check: error: argument --seed: expected at most 4300 significant digits"),
        (["homfly", "--max-crossings", LONG, "2: s1"], "skeinforge homfly: error: argument --max-crossings: expected at most 4300 significant digits"),
    ],
)
def test_option_numerals_past_the_int_conversion_limit_are_refused(capsys, argv, last_line):
    # Judged by their text, as the word's numerals are: the message names
    # the flag and no private function, and quotes a modulus as written.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == last_line
    assert not re.search(r"\b_[A-Za-z]", err) and "Traceback" not in err


def test_leading_zeros_do_not_count_towards_the_digit_limit(capsys):
    zeros = "0" * 5000
    assert run(capsys, "homfly", f"{zeros}2: s{zeros}1") == run(capsys, "homfly", "2: s1")
    assert run(capsys, "invariant", f"2: t1 | o = {zeros}1")[0] == 0


@pytest.mark.parametrize("command", ["invariant", "homfly"])
def test_crossing_bound_message_is_the_same_for_both_commands(capsys, command):
    code, out, err = run(capsys, command, "3: " + " ".join(["s1 s2"] * 12 + ["s1"]))
    assert (code, out) == (3, "")
    assert err == "bound exceeded: 25 crossings exceeds the bound 24\n"


GREEDY_WORDS = [
    "10: " + " ".join(f"s{i}^-1" for top in (10, 9, 8) for i in range(1, top)),
    "13: " + " ".join(f"s{i}^-1" for top in (13, 12) for i in range(1, top)),
]


@pytest.mark.parametrize("command", ["invariant", "homfly"])
@pytest.mark.parametrize("word", GREEDY_WORDS)
def test_work_above_the_bound_is_exit_3(capsys, command, word):
    # Within the default letter bound, but the Hecke state of these runs
    # of inverse letters grows past the work bound.
    code, out, err = run(capsys, command, word)
    assert (code, out) == (3, "")
    assert err == f"bound exceeded: the Hecke pass exceeds the bound of {skeinforge.engine.MAX_WORK} terms\n"


def test_trace_depth_does_not_grow_with_the_strands(capsys):
    # Two full sweeps survive _simplify on all 500 strands, and the trace
    # peels one strand at a time.  The digest is of the same answer from
    # the strand-by-strand recursion, run under a raised recursion limit.
    word = "500: " + " ".join(f"s{i}" for _ in range(2) for i in range(1, 500))
    code, out, err = run(capsys, "homfly", "--max-crossings", "5000", word)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d6dc73dc91fe3e32faefc4f96ca43ff17d11a3abd45513736a028f16f8fb0a89"
    )


ORDERED_OVER_BUDGET = (
    "12: t9 s6^-1 t8 s9^-1 s8 t9 s11^-1 t4 s5^-1 s5 s11^-1 s6^-1 s7^-1 s8^-1"
    " t6 t8 t3 t6 t3 s10 s3^-1 s8^-1 t6 s9^-1"
)


def test_ordered_resolution_passes_share_one_budget(capsys):
    # Its graded pass stays within MAX_WORK, and so does each of its 1,024
    # resolution passes; together they would make about 4.9 M terms.
    assert run(capsys, "invariant", ORDERED_OVER_BUDGET)[0] == 0
    code, out, err = run(capsys, "invariant", "--ordered", ORDERED_OVER_BUDGET)
    assert (code, out) == (3, "")
    assert err == (
        f"bound exceeded: the resolution passes exceed the bound of {skeinforge.skein.MAX_CUBE_WORK} terms\n"
    )


def test_ordered_axis_pass_is_bounded_before_it_starts(capsys):
    # The 2^14 resolution passes fit MAX_CUBE_WORK, and the unordered
    # answer is cheap; the axis pass's integers would take 85,590,016 bytes.
    word = "2: " + " ".join(["t1"] * 14)
    bounds = ("--max-sing", "14", "--max-crossings", "40")
    assert run(capsys, "invariant", *bounds, word)[0] == 0
    code, out, err = run(capsys, "invariant", "--ordered", *bounds, word)
    assert (code, out) == (3, "")
    assert err == (
        f"bound exceeded: the axis pass needs 85590016 bytes, over the bound of {skeinforge.skein.MAX_AXIS_BYTES}\n"
    )


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "homfly", "2: t1")
    assert code == 4 and "precondition" in err


def test_usage_error_is_exit_2(capsys):
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "invariant", "--jobs", "2", "2: t1")[0] == 2


# -- fuzzed argv ---------------------------------------------------------------

_HEADS = ["1:", "2:", "3:", "4:", "5:", "6:", "6", ":", "0:", "2049:", "99999999999999999999:"]
_JUNK = ["|", "o", "=", "| o = 1", "| o = 2 1", "wat", "s", "t1^-1", "s1^2", "\u00b2", "s\u0661", "\u00e9", "-", ""]
_FLAGS = [
    ["--json"], ["--ordered"], ["--ring", "conway"], ["--ring", "gf:5"], ["--ring", "gf:6"],
    ["--ring", "gf:\u0665"], ["--ring"], ["--max-crossings", "3"], ["--max-crossings", "0"],
    ["--max-crossings", "99999999999999999999"], ["--max-sing", "2"], ["--max-sing", "-1"],
    ["--max-sing"], ["--seed", "3"], ["--jobs", "2"], ["--ord"], ["--json=1"], ["-x"], ["--"], ["-h"],
]
_LETTERS = st.builds("{}{}{}".format, st.sampled_from("st"), st.integers(0, 7), st.sampled_from(["", "^-1"]))
# Runs s1^-1 ... s(k-1)^-1 on 7-13 strands, the letters that grow the
# Hecke state fastest.
_INVERSE_RUNS = st.integers(7, 13).flatmap(
    lambda n: st.lists(st.integers(2, n), min_size=1, max_size=3).map(
        lambda tops: f"{n}: " + " ".join(f"s{i}^-1" for top in tops for i in range(1, top))
    )
)
_WORDS = st.one_of(
    st.builds(
        lambda head, tokens: " ".join([head, *tokens]),
        st.sampled_from(_HEADS),
        st.lists(st.one_of(_LETTERS, _LETTERS, st.sampled_from(_JUNK)), max_size=6),
    ),
    _INVERSE_RUNS,
)


def _argv(command, word, flags, split):
    # The flags' tokens go before the word, after it, or around it.
    tokens = [tok for flag in flags for tok in flag]
    return [command, *tokens[:split], word, *tokens[split:]]


_ARGV = st.builds(
    _argv,
    st.sampled_from(["invariant", "homfly"]),
    _WORDS,
    st.lists(st.sampled_from(_FLAGS), max_size=3),
    st.integers(0, 6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ARGV)
@example(["invariant", "99999999999999999999: s1"])
@example(["homfly", "--json", "2049: s1 s2"])
@example(["homfly", GREEDY_WORDS[0]])
@example(["invariant", "--ring", "conway", GREEDY_WORDS[1]])
def test_any_argv_ends_cleanly(argv):
    # Every argv answers or exits 2, 3 or 4 with nothing on stdout.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert code == 0 or out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue(), argv


# -- seeded argv table -----------------------------------------------------------

_REFUSALS = {2: "parse error: ", 3: "bound exceeded: ", 4: "precondition violated: "}
_CHEAP_SUITES = ("lemma22", "ordering", "specialize")
_TABLE_FLAGS = [
    [], ["--json"], ["--ordered"], ["--json", "--json"], ["--ordered", "--ordered"],
    ["--ring", "generic"], ["--ring", "conway"], ["--ring", "gf:2"], ["--ring", "gf:5"], ["--ring", ""],
    ["--ring"], ["--ring", "conway", "--ring", "gf:3"], ["--max-crossings", "24"], ["--max-crossings", ""],
    ["--max-crossings", "3", "--max-crossings", "30"], ["--max-sing", "1"], ["--max-sing", ""],
    ["--max-sing", "2", "--max-sing", "6"], ["--seed", "1"], ["--seed", ""], ["--version"], ["-h"], [""], ["--"],
]


def _table_numerals(rng):
    # Each length plain, all ones, signed, zero-led, and with one digit
    # from another script.
    out = []
    for n in (0, 1, 25, 26, 4300, 4301, 5000):
        digits = "".join(rng.choice("0123456789") for _ in range(n))
        out += [digits, "1" * n, "-" + digits, "+" + digits, "000" + digits]
        if n:
            i = rng.randrange(n)
            out.append(digits[:i] + rng.choice("\u0663\uff15\u00b2") + digits[i + 1:])
    return out


def _argv_table(seed=2727):
    rng = random.Random(seed)
    table = [
        [], ["--version"], ["-h"], ["unknown"], ["invariant"], ["homfly"], ["check"], ["check", "nope"],
        ["check", "all", "--seed"], ["check", "all", "--seed", "1", "--seed", "-1"],
        ["check", "star", "--ring", "conway"], ["check", "ordering", "--json", "--json", "--seed", "3"],
        *(["check", suite, "--seed", "+1"] for suite in cli._SUITE_NAMES),
        *(["check", rng.choice(_CHEAP_SUITES), *flags] for flags in _TABLE_FLAGS),
    ]
    slots = [
        lambda n: ["invariant", f"{n}: t1 s1"],
        lambda n: ["homfly", f"3: s{n} s1"],
        lambda n: ["invariant", f"2: t1 | o = {n}"],
        lambda n: ["invariant", "--ring", f"gf:{n}", "2: t1 s1^-1"],
        lambda n: ["homfly", "--max-crossings", n, "2: s1 s1"],
        lambda n: ["invariant", "--ordered", "--max-sing", n, "3: t1 t2"],
        lambda n: ["check", rng.choice(_CHEAP_SUITES), "--seed", n],
    ]
    for numeral in _table_numerals(rng):
        table += [slot(numeral) for slot in rng.sample(slots, 3)]
    for _ in range(120):
        link = braid.random_word(
            rng, strands=rng.randint(2, 6), classical=rng.randint(0, 10), sing=rng.randint(0, 4),
            shuffle_labels=rng.random() < 0.5,
        )
        tokens = [tok for flags in rng.sample(_TABLE_FLAGS, rng.randint(0, 3)) for tok in flags]
        split = rng.randint(0, len(tokens))
        table.append([rng.choice(["invariant", "homfly"]), *tokens[:split], str(link), *tokens[split:]])
    return table


def test_argv_table_ends_cleanly():
    # Every argv answers, or refuses with its exit code, nothing on stdout
    # and one line of stderr: the program's own refusal, or argparse's
    # usage and one "error:" line.  No inputs of the table hold "_", so an
    # underscore-led name in stderr is the program's own.
    for argv in [*_argv_table(), ["homfly", "2: s1", ""]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        shown = [arg[:30] for arg in argv]
        assert code in (0, 2, 3, 4), (shown, err[-300:])
        assert "Traceback" not in err and not re.search(r"\b_[A-Za-z]", err), (shown, err[-300:])
        if not code:
            assert err == "", shown
            continue
        assert out == "", shown
        lines = err.splitlines()
        if lines[0].startswith("usage: "):
            assert code == 2 and re.match(r"skeinforge( \w+)?: error: ", lines[-1]), (shown, lines[-1][:300])
            if argv == ["homfly", "2: s1", ""]:
                # An empty argument is named, not left as nothing.
                assert lines[-1] == "skeinforge: error: unrecognized arguments: ''"
        else:
            assert len(lines) == 1 and lines[0].startswith(_REFUSALS[code]), (shown, err[:300])


# -- JSON --------------------------------------------------------------------


def test_invariant_json_schema(capsys):
    code, out, _ = run(capsys, "invariant", "--json", "2: t1 s1^-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 1
    assert payload["coeffs"] == [
        {"i": 0, "j": 1, "num": "1 t^(-2)", "dpow": 0},
        {"i": 1, "j": 0, "num": "-1 t^(-1) x", "dpow": 0},
    ]
    assert "ordered" not in payload


def test_invariant_json_ordered(capsys):
    code, out, _ = run(capsys, "invariant", "--json", "--ordered", "2: t1")
    payload = json.loads(out)
    assert payload["ordered"] == [{"eps": "0", "num": "1", "dpow": 0}]


def test_homfly_json(capsys):
    for argv, num in [
        (("2: s1 s1",), "-1 t^3 x^(-1) + 1 t x^(-1) + 1 t x"),
        # delta vanishes at t = 1; the zero coefficient is still listed.
        (("--ring", "conway", "2:"), "0"),
    ]:
        code, out, _ = run(capsys, "homfly", "--json", *argv)
        assert code == 0
        assert json.loads(out) == {"d": 0, "coeffs": [{"i": 0, "j": 0, "num": num, "dpow": 0}]}


def test_check_json(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "star", "--json", "--seed", "9")
    assert code == 0
    (report,) = json.loads(out)
    assert report["suite"] == "star"
    assert report["failures"] == 0
    assert report["seed"] == 9
    # A wrong reference fails the oracle suite on its first word, the
    # empty 1-strand closure.
    from skeinforge import checks

    monkeypatch.setattr(checks, "homfly_reference", lambda word, ring: ring.zero)
    code, out, _ = run(capsys, "check", "oracle", "--json")
    assert code == 1
    assert json.loads(out) == [
        {"suite": "oracle", "cases": 1, "failures": 1, "seed": 0, "counterexample": "word = 1:"}
    ]
    code, out, _ = run(capsys, "check", "oracle")
    assert (code, out) == (
        1, "suite oracle: 1 cases, 1 failures (seed 0) FAIL\n  first counterexample: word = 1:\n"
    )


ROADMAP_WORD = "5: t1 s2 t3 s4^-1 t2 s1^-1 t4 s3 t1 s2^-1 t3 s4 t2 s1 t4 s3^-1 t1 t2 s2 s1"
T1_40_WORD = "2: " + " ".join(["t1"] * 40)
# The largest prime below rings._MR_BOUND.
LARGEST_PRIME = 3317044064679887385961813

# SHA-256 of the stdout of every invariant output form, made with the
# unordered answer taken as the projection of the solved coordinates.
PINNED_INVARIANT_DIGESTS = [
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "generic", (), "e49d7f4997cc403bbf46df065dcdd7cdde55869c54ea13037925d7806c2c83e3"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "generic", ("--ordered",), "09046c7efb7eee22c9451884c265a32ff6d89217bb14bce3577ff22a1759a372"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "generic", ("--json",), "1c24c717c3ba6e391e1a90d2d238d633b9ffbe8a0e5e0eac5149d6653b6e3f73"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "generic", ("--json", "--ordered"), "d4b3e4fddf58670b9512bc96285b94f736fcddf6004da290fc67cb3840bb4b17"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "conway", (), "6a673b355608dbcfa87f17c83a0c3daf9a1d967f56ebe6e5e7b866e502c73af7"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "conway", ("--ordered",), "7fe37ff1b5f406502bba0be77e658ef116161d6f72ea1ca8aa5dce450befed32"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "conway", ("--json",), "6acef8fe3e06d57f514bbbebd2abb5a12a78e5c58c0c0812594e74cf15c1aac4"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "conway", ("--json", "--ordered"), "0379e1a5e32b7d8087afc935af17cc795c36e9291d743cb19404dec26e0b7e2b"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "gf:5", (), "b284bfa00e1785033cdf44bd3254d87c44191f7851f7082f4c2255ce11ca9721"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "gf:5", ("--ordered",), "7518083f6c34531e9b898067d4a1d58337123aa63c8f05a68c59d998c86ddde4"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "gf:5", ("--json",), "18f13d26c928d2690d115b0ad445066512db4c48f54b18bebf024446f4eaa9f7"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "gf:5", ("--json", "--ordered"), "b47194d3c024fbe4448fd933408e68cc34a9f3a258efef9f9e1d18bd4a951eb0"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "generic", (), "f1afa89c047b7ff1e8dd124f9f1cd29194215b5eb9a6ce68c6cd1ff0975168d6"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "generic", ("--ordered",), "1ba9448fce2320e0b59053637930f96f0b41d9d84adeb899d8be65dff947d0da"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "generic", ("--json",), "00052ec5ce368b4fb8a3690622ba97a7d712e9f3c6889a99a6f6a82e58037f79"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "generic", ("--json", "--ordered"), "59cd16448508e6d763f7e451ea66ec2ab065f19648829ecc1527a48364a76ce7"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "conway", (), "aa74e3f85072800af047490134c9dfecfb5bcaa7b6d498c9043ca9bce9466c86"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "conway", ("--ordered",), "a20b79e24b4ecfe371f4e832bc6065b6a8cf80fcdf9c31dd4f5f39c2c84939af"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "conway", ("--json",), "d9aa2724397be4f736a5cf9395610a0b46aa1f186ed54d6c7ba5fafcf70a4a78"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "conway", ("--json", "--ordered"), "3a29ef299cfebe5d6fc725d290971cf949f71cabc75a7272152ab9ea32815dca"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "gf:5", (), "1c6c5377466128cd56a9598c477fabf49f65803fadf0caeff4e7f7cb2df009a9"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "gf:5", ("--ordered",), "57c2f92e4e70af77a87a392c5ef32545d17a0f1a8f88c7980b8de56f2aca4668"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "gf:5", ("--json",), "25d1a06cf40e265a62bda11a71828fee0a163086eda72cd1482c71dff62b4448"),
    ("4: t1 s2 t3 s1^-1 t2 s3 t1 s2^-1 t3 | o = 5 2 4 1 3", "gf:5", ("--json", "--ordered"), "203397ed05a351757ac5bcdc97463461ed1b8d1289e77886f15eb1fb5a4a1a22"),
    # The d = 10 word of ROADMAP.md, made from the weight sums of the
    # LaurentPoly-valued Hecke pass.
    (ROADMAP_WORD, "generic", (), "a68dfc517656314aa89d892950e6afcb771f7f086035aae033102b5136198138"),
    (ROADMAP_WORD, "conway", (), "f1255c3220fb402d9e8f864c735a8f32a4bc5558240402af0082daea7afb7f8e"),
    (ROADMAP_WORD, "gf:5", (), "11c64949303e03abeab28b64a7d64cabe807f2e216f30f6cd5beb89239aa3d5e"),
    # The same word over GF(2) and GF(3), made by the per-j Horner in c
    # over integer binomial rows.
    (ROADMAP_WORD, "gf:2", (), "861c4e8087328d00a2f4bff4439625618beeb667ac81355e96eb754040df2907"),
    (ROADMAP_WORD, "gf:3", (), "4c3f205e6b22b4e68c8718d6de80799090cd6ab4743fdde3d32a77da32f03ed9"),
    # Its --ordered forms, made when the axis pass ran on LaurentPoly values
    # (now on the engine's packed terms).
    (ROADMAP_WORD, "generic", ("--ordered",), "93af4ba1d5b6d51b3958df4388d3c5e24f577dc0b80416f7f038e71709a1fe97"),
    (ROADMAP_WORD, "conway", ("--ordered",), "c94859a2d41ce8fb46903dd207227735d4da6873d88e594c25a98632802af9b2"),
    (ROADMAP_WORD, "gf:5", ("--ordered",), "64dd571c2d0ae73c00087c5aa1a38f60d409442cf79c9a5bc57857fa24b5c084"),
    (ROADMAP_WORD, "generic", ("--json", "--ordered"), "b81f64884efeaa6d878581b077d8fdce0f487a74ba4dfdac40e62ba53634b76b"),
    (ROADMAP_WORD, "conway", ("--json", "--ordered"), "adea605cbe5d01cbc2528355c8d095a70e54c529b5c54f5f7dadb5886583deb2"),
    (ROADMAP_WORD, "gf:5", ("--json", "--ordered"), "6224be615d2efc19e858e5fd5a373491e97de1caf2462b58b314c98063ceadd1"),
    # --ordered in the rings whose normal forms skip the _off_denom
    # certificate.
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "gf:2", ("--ordered",), "b43f89e7d8d80219af73586db91b68aa5a97b91cd54678849ec78a76a2285d4f"),
    ("3: t1 s2 t2 s1^-1 t1 | o = 3 1 2", "gf:3", ("--ordered",), "285b24a05df8aa8391ef5797942e37b7f58534fb15d4ad40b2d09f15564586ba"),
    # Coefficients past one 64-bit word: 3^40 > 2^63 in generic, and the
    # 82-bit residues of the largest prime below the modulus bound.  Made
    # when the kernel and the axis pass ran on packed dicts.
    (T1_40_WORD, "generic", ("--max-sing", "40", "--max-crossings", "40"), "7240d42d1ffa3b031065ab50b803a2a25e749c14da4c7aaa7890457d613c5291"),
    (ROADMAP_WORD, f"gf:{LARGEST_PRIME}", (), "dabe6f7c25e97e27fd61c869979be9cecc5e050249f7740e8f7e5be66f4536be"),
    ("3: t1 t2 s1^-1 t1 s2", f"gf:{LARGEST_PRIME}", ("--ordered", "--json"), "f4e6aa41f78214e54300012c67e4cfd9e9d909269331121f6843cc703d5d1200"),
    ("3: t1 t2 s1^-1 t1 s2", "conway", ("--ordered", "--json"), "fae152c58a763f822760a4a0ec51f275fb0e0df9b1fa7633a2e74e2ddfe8d382"),
]


@pytest.mark.parametrize("word,ring,flags,digest", PINNED_INVARIANT_DIGESTS)
def test_invariant_output_pinned(capsys, word, ring, flags, digest):
    code, out, _ = run(capsys, "invariant", "--ring", ring, *flags, word)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


POWER_WORD = "10: " + " ".join(f"s{i}" for _ in range(3) for i in range(1, 10))
SWEEP16_WORD = "16: " + " ".join(f"s{i}" for _ in range(2) for i in range(1, 16))

# SHA-256 of homfly's stdout on two words whose trace fill reaches levels
# of long values, made when such levels were contracted one permutation
# at a time.
PINNED_HOMFLY_DIGESTS = [
    (POWER_WORD, "generic", "399fb2a6457ad795400a7c8f96ad597361a5aaf56ea0d9313fc1e2cf11ba989b"),
    (POWER_WORD, "conway", "b158817b7a96df4fbec6b0255ac6569a5320b9fddac419b80297aeef3bf09ad8"),
    (POWER_WORD, "gf:5", "a1f5171eb7168b7d99bdb561ec6f276a91adba961380abbd4672e40aa3272c11"),
    (SWEEP16_WORD, "generic", "2203a5a7d6cb2de14aa229cb62bff2ec575835b6579ed8247dc37c6f4c211264"),
    (SWEEP16_WORD, "conway", "062910bd3b5de08e23ad6723012fa7e61241b5195df20ee64d6994608eb1d0c6"),
    (SWEEP16_WORD, "gf:5", "adb15024e8ece1363d4a80ad5bb0cb794600efd943687b1f825f98beb894ab7b"),
]


@pytest.mark.parametrize("word,ring,digest", PINNED_HOMFLY_DIGESTS)
def test_homfly_output_pinned_on_long_trace_values(capsys, word, ring, digest):
    code, out, _ = run(capsys, "homfly", "--ring", ring, "--max-crossings", "30", word)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- determinism ---------------------------------------------------------------


def test_byte_identical_output(capsys):
    first = run(capsys, "invariant", "--json", "--ordered", "3: t1 s2 t2 | o = 2 1")
    second = run(capsys, "invariant", "--json", "--ordered", "3: t1 s2 t2 | o = 2 1")
    assert first == second
    a = run(capsys, "check", "lemma22", "--seed", "12")
    b = run(capsys, "check", "lemma22", "--seed", "12")
    assert a == b and a[0] == 0


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    word = "3: t1 s2 t2 | o = 2 1"
    sequence = [
        ["invariant", "--ordered", word],
        ["invariant", word],
        ["invariant", "--no-such-flag", word],
        ["homfly", "--json", "2: s1 s1 s1"],
    ]
    shared = [run(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "a[" in shared[0][1] and "a[" not in shared[1][1]


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["skeinforge", "homfly", "2: s1 s1 s1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("skeinforge", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == run(capsys, "homfly", "2: s1 s1 s1")[1]


def test_gf_ring_flag(capsys):
    code, out, _ = run(capsys, "invariant", "--ring", "gf:5", "2: t1 s1^-1")
    assert code == 0
    assert out == "t^(-2) Y + 4 t^(-1) x X\n"


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.startswith("skeinforge ")


def test_import_leaves_out_multiprocessing():
    # A fresh interpreter: modules imported by other tests must not count.
    # Answering homfly loads neither the check suites, nor the reference
    # evaluator, nor dataclasses (which pulls in inspect, ast and dis),
    # nor json, which only --json output reads.
    src = str(Path(skeinforge.__file__).resolve().parents[1])
    probe = (
        "import sys, skeinforge.cli\n"
        "assert skeinforge.cli.main(['homfly', '1:']) == 0\n"
        "absent = ('multiprocessing', 'skeinforge.checks', 'skeinforge.oracle', 'dataclasses', 'json')\n"
        "print([name for name in absent if name in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "1\n[]\n"


PUBLIC_NAMES = [
    "BoundError", "CONWAY", "DEFAULT_MAX_CROSSINGS", "DEFAULT_MAX_SING", "GENERIC", "LaurentPoly",
    "LocalizedScalar", "NEG", "OrderedSingularLink", "OrderedSkeinElement", "POS", "ParseError",
    "PreconditionError", "Ring", "SING", "SUITE_NAMES", "SingularBraidWord", "SkeinPolynomial",
    "SkeinforgeError", "SuiteReport", "UNKNOT", "X", "Y", "Y_PRIME", "__version__", "all_patterns",
    "apply_cube", "clear_cache", "components_unionfind", "connected_sum", "eval_vector", "exact_div",
    "gf", "homfly", "homfly_reference", "invariant", "invariant_ordered", "parse_link", "parse_word",
    "permute_bits", "project_unordered", "reorder", "resolve_all", "run_suite", "run_suites",
    "solve_coordinates", "specialize", "specialize_scalar", "split_union", "star",
]


def test_lazy_names_are_the_modules_own():
    from skeinforge import braid, checks, engine, errors, oracle, rings, skein

    # The package exports its eager modules' __all__, each name listed once.
    assert sorted(skeinforge.__all__) == PUBLIC_NAMES
    eager = (braid, engine, errors, rings, skein)
    listed = [(name, module) for module in eager for name in module.__all__]
    assert len({name for name, _ in listed}) == len(listed) == 44
    for name, module in listed:
        assert getattr(skeinforge, name) is getattr(module, name)
    assert set(skeinforge.__all__) == {"__version__", *(name for name, _ in listed), *skeinforge._LAZY}
    ns = {}
    exec("from skeinforge import *", ns)
    assert all(ns[name] is getattr(skeinforge, name) for name in skeinforge.__all__)

    for name in ("SUITE_NAMES", "SuiteReport", "run_suite", "run_suites"):
        assert getattr(skeinforge, name) is getattr(checks, name)
    from skeinforge import SUITE_NAMES, homfly_reference

    assert SUITE_NAMES is checks.SUITE_NAMES
    assert homfly_reference is oracle.homfly_reference
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        skeinforge.no_such_name
    with pytest.raises(ImportError):
        from skeinforge import no_such_name  # noqa: F401


def test_check_choices_are_the_suites():
    from skeinforge import checks

    assert cli._SUITE_NAMES == tuple(checks._SUITES) + ("all",)


CHECK_USAGE = """\
usage: skeinforge check [-h] [--json] [--seed S]
                        {skein,markov,star,lemma22,ordering,specialize,oracle,all}
"""


def test_check_help_and_bad_suite_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "check", "--help")
    assert (code, err) == (0, "")
    assert out == CHECK_USAGE + """
positional arguments:
  {skein,markov,star,lemma22,ordering,specialize,oracle,all}
                        suite name or 'all'

options:
  -h, --help            show this help message and exit
  --json                emit JSON instead of text
  --seed S              seed for check suites
"""
    code, out, err = run(capsys, "check", "bogus")
    assert (code, out) == (2, "")
    assert err == CHECK_USAGE + (
        "skeinforge check: error: argument suite: invalid choice: 'bogus' (choose from "
        "'skein', 'markov', 'star', 'lemma22', 'ordering', 'specialize', 'oracle', 'all')\n"
    )
