"""The command-line surface: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skeinforge
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
_WORDS = st.builds(
    lambda head, tokens: " ".join([head, *tokens]),
    st.sampled_from(_HEADS),
    st.lists(st.one_of(_LETTERS, _LETTERS, st.sampled_from(_JUNK)), max_size=6),
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
def test_any_argv_ends_cleanly(argv):
    # Every argv answers or exits 2, 3 or 4 with nothing on stdout.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert code == 0 or out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue(), argv


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
    code, out, _ = run(capsys, "homfly", "--json", "2: s1 s1")
    payload = json.loads(out)
    assert payload == {
        "d": 0,
        "coeffs": [
            {"i": 0, "j": 0, "num": "-1 t^3 x^(-1) + 1 t x^(-1) + 1 t x", "dpow": 0}
        ],
    }


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "star", "--json", "--seed", "9")
    assert code == 0
    (report,) = json.loads(out)
    assert report["suite"] == "star"
    assert report["failures"] == 0
    assert report["seed"] == 9


ROADMAP_WORD = "5: t1 s2 t3 s4^-1 t2 s1^-1 t4 s3 t1 s2^-1 t3 s4 t2 s1 t4 s3^-1 t1 t2 s2 s1"

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
]


@pytest.mark.parametrize("word,ring,flags,digest", PINNED_INVARIANT_DIGESTS)
def test_invariant_output_pinned(capsys, word, ring, flags, digest):
    code, out, _ = run(capsys, "invariant", "--ring", ring, *flags, word)
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


def test_gf_ring_flag(capsys):
    code, out, _ = run(capsys, "invariant", "--ring", "gf:5", "2: t1 s1^-1")
    assert code == 0
    assert out == "t^(-2) Y + 4 t^(-1) x X\n"


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.startswith("skeinforge ")


def test_import_leaves_out_multiprocessing():
    # A fresh interpreter: modules imported by other tests must not count.
    src = str(Path(skeinforge.__file__).resolve().parents[1])
    probe = "import sys, skeinforge.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"
