"""Command-line interface.

Three subcommands: ``invariant`` computes the two-variable polynomial
of a singular link, ``homfly`` evaluates a classical word, and
``check`` runs the seeded verification suites.  Each subcommand takes
only the flags it reads.  Exit codes: 0 success, 1 check failure, 2
parse error, 3 bound exceeded, 4 precondition violated.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .braid import _is_nat, parse_link
from .checks import SUITE_NAMES, run_suites
from .errors import BoundError, ParseError, PreconditionError
from .engine import DEFAULT_MAX_CROSSINGS, homfly
from .rings import Ring
from .skein import (
    DEFAULT_MAX_SING,
    OrderedSkeinElement,
    SkeinPolynomial,
    invariant,
    invariant_ordered,
)

__all__ = ["main"]


def _ring_from_spec(text: str) -> Ring:
    if text == "generic":
        return Ring.get()
    if text == "conway":
        return Ring.get(conway=True)
    if text.startswith("gf:"):
        if not _is_nat(text[3:]):
            raise ParseError(f"bad prime in ring spec {text!r}")
        try:
            return Ring.get(int(text[3:]))
        except ValueError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"unknown ring {text!r}; use generic, conway, or gf:<p>")


def _nat_arg(text: str) -> int:
    # int() would also take signs, spaces and any script's digits.
    if not _is_nat(text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _bound_arg(text: str) -> int:
    value = _nat_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError("bounds must be at least 1")
    return value


def _add_ring_and_crossings(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ring",
        default="generic",
        metavar="MODE",
        help="coefficients: generic, conway, or gf:<p> (default: generic)",
    )
    parser.add_argument(
        "--max-crossings",
        type=_bound_arg,
        default=DEFAULT_MAX_CROSSINGS,
        metavar="N",
        help=f"refuse words with more crossings (default: {DEFAULT_MAX_CROSSINGS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinforge",
        description="Exact two-variable skein invariants of closed singular braids.",
    )
    parser.add_argument("--version", action="version", version=f"skeinforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    json_help = "emit JSON instead of text"

    p_inv = sub.add_parser("invariant", help="invariant of a singular link")
    p_inv.add_argument("word", help="singular braid word, e.g. '3: t1 s2^-1 t2 | o = 2 1'")
    p_inv.add_argument(
        "--ordered",
        action="store_true",
        help="also print the labeled coordinates",
    )
    _add_ring_and_crossings(p_inv)
    p_inv.add_argument(
        "--max-sing",
        type=_bound_arg,
        default=DEFAULT_MAX_SING,
        metavar="N",
        help=f"refuse links with more singular crossings (default: {DEFAULT_MAX_SING})",
    )
    p_inv.add_argument("--json", action="store_true", help=json_help)
    p_inv.set_defaults(handler=_cmd_invariant)

    p_hom = sub.add_parser("homfly", help="polynomial of a classical word")
    p_hom.add_argument("word", help="classical braid word, e.g. '2: s1 s1 s1'")
    _add_ring_and_crossings(p_hom)
    p_hom.add_argument("--json", action="store_true", help=json_help)
    p_hom.set_defaults(handler=_cmd_homfly)

    p_chk = sub.add_parser("check", help="run a verification suite")
    p_chk.add_argument("suite", choices=SUITE_NAMES, help="suite name or 'all'")
    p_chk.add_argument("--json", action="store_true", help=json_help)
    p_chk.add_argument(
        "--seed", type=_nat_arg, default=0, metavar="S", help="seed for check suites"
    )
    p_chk.set_defaults(handler=_cmd_check)

    return parser


def _coeff_obj(key, scalar) -> dict:
    i, j = key
    return {"i": i, "j": j, "num": str(scalar.num), "dpow": scalar.dpow}


def _invariant_payload(d: int, poly: SkeinPolynomial, element: OrderedSkeinElement | None) -> dict:
    payload = {
        "d": d,
        "coeffs": [_coeff_obj(key, poly.coeffs[key]) for key in sorted(poly.coeffs)],
    }
    if element is not None:
        payload["ordered"] = [
            {
                "eps": "".join(str(b) for b in bits),
                "num": str(element.coords[bits].num),
                "dpow": element.coords[bits].dpow,
            }
            for bits in sorted(element.coords)
        ]
    return payload


def _cmd_invariant(args) -> int:
    ring = _ring_from_spec(args.ring)
    link = parse_link(args.word)
    bounds = {"max_sing": args.max_sing, "max_crossings": args.max_crossings}
    poly = invariant(link, ring, **bounds)
    # The coordinates come from all 2^d resolution values; the polynomial
    # above came from the engine's d + 1 weight sums.
    element = invariant_ordered(link, ring, **bounds) if args.ordered else None
    if args.json:
        print(json.dumps(_invariant_payload(link.d, poly, element)))
    else:
        print(poly)
        if element is not None:
            print(element)
    return 0


def _cmd_homfly(args) -> int:
    ring = _ring_from_spec(args.ring)
    word = parse_link(args.word).word
    value = homfly(word, ring, max_crossings=args.max_crossings)
    if args.json:
        payload = {
            "d": 0,
            "coeffs": [{"i": 0, "j": 0, "num": str(value), "dpow": 0}],
        }
        print(json.dumps(payload))
    else:
        print(value)
    return 0


def _cmd_check(args) -> int:
    reports = run_suites([args.suite], args.seed)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "suite": r.name,
                        "cases": r.cases,
                        "failures": r.failures,
                        "seed": r.seed,
                        "counterexample": r.counterexample,
                    }
                    for r in reports
                ]
            )
        )
    else:
        for report in reports:
            print(report.format())
    return 0 if all(r.ok for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # An unread flag's value may have displaced the word: name the flags.
            flags = [a for a in extras if a.startswith("-")] or extras
            parser.error("unrecognized arguments: " + " ".join(flags))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BoundError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
