"""skeinforge: exact two-variable skein invariants of singular links.

Links enter as closed singular braid words.  Closures are evaluated by
one pass over the word in the Hecke algebra followed by its trace;
singular links resolve into a cube of classical closures whose values
determine coordinates in a free basis, and summing over label patterns
yields a polynomial in the two generator links X and Y.  All arithmetic is exact, over the
integers, over GF(p), or with t specialized to 1.  Each of these modes is
one shared ``Ring``, and every value carries the ring it was built in:
mixing values of different rings raises ``ValueError``, and
``specialize`` (or ``specialize_scalar``) is the only way to move a
value from one ring into another.

Importing the package loads only what ``invariant`` and ``homfly`` run.
The check suites and the reference evaluator load on first use of the
names in ``_LAZY``.
"""

__version__ = "0.1.0"

from .braid import (
    NEG,
    POS,
    SING,
    UNKNOT,
    X,
    Y,
    Y_PRIME,
    OrderedSingularLink,
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
from .errors import BoundError, ParseError, PreconditionError, SkeinforgeError
from .engine import DEFAULT_MAX_CROSSINGS, clear_cache, homfly
from .rings import (
    CONWAY,
    GENERIC,
    LaurentPoly,
    LocalizedScalar,
    Ring,
    exact_div,
    gf,
    specialize,
    specialize_scalar,
)
from .skein import (
    DEFAULT_MAX_SING,
    OrderedSkeinElement,
    SkeinPolynomial,
    apply_cube,
    eval_vector,
    invariant,
    invariant_ordered,
    project_unordered,
    solve_coordinates,
    star,
)

__all__ = [
    "__version__",
    "POS",
    "NEG",
    "SING",
    "X",
    "Y",
    "Y_PRIME",
    "UNKNOT",
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
    "LaurentPoly",
    "LocalizedScalar",
    "Ring",
    "GENERIC",
    "CONWAY",
    "gf",
    "exact_div",
    "specialize",
    "specialize_scalar",
    "homfly",
    "clear_cache",
    "homfly_reference",
    "DEFAULT_MAX_CROSSINGS",
    "DEFAULT_MAX_SING",
    "OrderedSkeinElement",
    "SkeinPolynomial",
    "eval_vector",
    "solve_coordinates",
    "apply_cube",
    "invariant_ordered",
    "invariant",
    "star",
    "project_unordered",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
    "SkeinforgeError",
    "ParseError",
    "BoundError",
    "PreconditionError",
]

# Served by __getattr__ (PEP 562), so a plain start does not load them.
_LAZY = {
    "SUITE_NAMES": "checks",
    "SuiteReport": "checks",
    "run_suite": "checks",
    "run_suites": "checks",
    "homfly_reference": "oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
