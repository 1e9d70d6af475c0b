"""Certified band structure for periodic Schrödinger operators on Z^d.

The core modules (errors, lattice, floquet, bandedges) load with the
package.  counterexample, degeneracy and freebands load on the first use of
one of their names (PEP 562 module ``__getattr__``), and so does mpmath,
which only degeneracy uses.  Each CLI subcommand imports only the modules it
runs, so ``spectrum``, ``bands`` and ``cq`` never load those three.
"""

import importlib

__version__ = "0.1.0"

from .bandedges import (
    BandTable,
    CqEstimate,
    GridSpec,
    Interval,
    SpectrumReport,
    assemble_spectrum,
    certified_edges,
    certified_slack,
    default_grid,
    estimate_cq,
    iter_band_rows,
    lipschitz_constant,
    min_abs_eigenvalue,
    overlap_after_potential,
    overlaps,
    sample_bands,
)
from .errors import (
    ComputationError,
    ConfigurationError,
    DegenerateBeyondSecondOrder,
    DomainError,
)
from .floquet import (
    Potential,
    assemble,
    eigenvalues_sorted_desc,
    load_potential,
    minimal_period,
    parse_potential,
    potential,
    random_potential,
    zero_potential,
)
from .lattice import (
    FourierIndex,
    Phase,
    PeriodVector,
    SiteIndex,
    enumerate_lambda,
    fold_phase,
    period,
    phase,
    site_from_coords,
    site_from_linear,
    torus_distance,
)

# Exported names of the modules loaded on first use, by module.
_LAZY = {
    "counterexample": (
        "CounterexampleSpec",
        "GapCheck",
        "NeighborSumReport",
        "build_dimer",
        "build_vq",
        "dimer_oracle_spectrum",
        "neighbor_sum_check",
        "verify_gap_at_zero",
    ),
    "degeneracy": (
        "DegeneracyGroup",
        "DirectionClassification",
        "MoveCounts",
        "classify",
        "coincident_group",
        "count_moves",
        "predict_moves",
    ),
    "freebands": (
        "WitnessResult",
        "construct_theta_for_energy",
        "free_gradient",
        "free_level",
        "interior_witness",
        "second_order_coeff",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    "BandTable",
    "ComputationError",
    "ConfigurationError",
    "CounterexampleSpec",
    "CqEstimate",
    "DegeneracyGroup",
    "DegenerateBeyondSecondOrder",
    "DirectionClassification",
    "DomainError",
    "FourierIndex",
    "GapCheck",
    "GridSpec",
    "Interval",
    "MoveCounts",
    "NeighborSumReport",
    "Phase",
    "PeriodVector",
    "Potential",
    "SiteIndex",
    "SpectrumReport",
    "WitnessResult",
    "assemble",
    "assemble_spectrum",
    "build_dimer",
    "build_vq",
    "certified_edges",
    "certified_slack",
    "classify",
    "coincident_group",
    "construct_theta_for_energy",
    "count_moves",
    "default_grid",
    "dimer_oracle_spectrum",
    "eigenvalues_sorted_desc",
    "enumerate_lambda",
    "estimate_cq",
    "fold_phase",
    "free_gradient",
    "free_level",
    "interior_witness",
    "iter_band_rows",
    "lipschitz_constant",
    "load_potential",
    "min_abs_eigenvalue",
    "minimal_period",
    "neighbor_sum_check",
    "overlap_after_potential",
    "overlaps",
    "parse_potential",
    "period",
    "phase",
    "potential",
    "predict_moves",
    "random_potential",
    "sample_bands",
    "site_from_coords",
    "site_from_linear",
    "torus_distance",
    "verify_gap_at_zero",
    "zero_potential",
]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        return getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})
