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

The package exports ``__version__``, the ``__all__`` of each module it
imports below, and the names in ``_LAZY``.
Importing the package loads only what ``invariant`` and ``homfly`` run.
The check suites and the reference evaluator load on first use of the
names in ``_LAZY``.
"""

__version__ = "0.1.0"

from . import braid, engine, errors, rings, skein
from .braid import *
from .engine import *
from .errors import *
from .rings import *
from .skein import *

# Served by __getattr__ (PEP 562), so a plain start does not load them.
_LAZY = {
    "SUITE_NAMES": "checks",
    "SuiteReport": "checks",
    "run_suite": "checks",
    "run_suites": "checks",
    "homfly_reference": "oracle",
}

__all__ = ["__version__", *braid.__all__, *engine.__all__, *errors.__all__, *rings.__all__, *skein.__all__, *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
