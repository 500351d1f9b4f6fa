"""The command-line surface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "word", ["2: t1 | o = \u00b2", "\u00b2 : s1", "\u0662: s\u0661", "2: t1 | o = \u0661"]
)
def test_non_ascii_digits_are_parse_errors(capsys, word):
    # Superscripts and Arabic-Indic digits pass str.isdigit but are not
    # part of the grammar.
    code, out, err = run(capsys, "invariant", word)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


def test_exit_code_bounds(capsys):
    code, _, err = run(capsys, "homfly", "--max-crossings", "2", "2: s1 s1 s1")
    assert code == 3 and "bound" in err
    code, _, _ = run(capsys, "invariant", "--max-sing", "1", "3: t1 t2")
    assert code == 3


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "homfly", "2: t1")
    assert code == 4 and "precondition" in err


def test_usage_error_is_exit_2(capsys):
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "invariant", "--jobs", "2", "2: t1")[0] == 2


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
