"""Certified band structure for periodic Schrödinger operators on Z^d.

The core modules (errors, lattice, floquet, bandedges) load with the
package.  counterexample, degeneracy and freebands load on the first use of
one of their names (PEP 562 module ``__getattr__``).  Each CLI subcommand
imports only the modules it runs, so ``spectrum``, ``bands`` and ``cq`` never
load those three.
"""

import importlib

__version__ = "0.1.0"

from . import bandedges, errors, floquet, lattice
from .bandedges import *
from .errors import *
from .floquet import *
from .lattice import *

# The __all__ of each module loaded on first use, listed without loading it.
_LAZY = {
    "counterexample": (
        "DELTA_MAX_DEFAULT",
        "CounterexampleSpec",
        "NeighborSumReport",
        "GapCheck",
        "build_vq",
        "build_dimer",
        "neighbor_sum_check",
        "verify_gap_at_zero",
        "dimer_oracle_spectrum",
    ),
    "degeneracy": (
        "DegeneracyGroup",
        "DirectionClassification",
        "MoveCounts",
        "coincident_group",
        "classify",
        "count_moves",
        "predict_moves",
    ),
    "freebands": (
        "WitnessResult",
        "free_level",
        "free_gradient",
        "second_order_coeff",
        "interior_witness",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    *bandedges.__all__,
    *errors.__all__,
    *floquet.__all__,
    *lattice.__all__,
    *_LAZY_OWNER,
]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        return getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})
