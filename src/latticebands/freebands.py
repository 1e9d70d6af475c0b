"""Closed-form levels of the zero-potential operator and their local geometry.

With zero potential the fiber eigenvalues are known explicitly: for each
frequency offset l the level at reduced phase theta is

    e_l(theta) = sum_i 2 cos(2 pi (theta_i + l_i / q_i)),

and the d free bands machinery (gradient, directional curvature, energy
witnesses) all reduce to trigonometry on these levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bandedges
from .errors import DomainError
from .floquet import zero_potential
from .lattice import PeriodVector, check_index, check_phase

__all__ = [
    "WitnessResult",
    "free_level",
    "free_gradient",
    "second_order_coeff",
    "interior_witness",
]

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class WitnessResult:
    """Certificate that an energy lies strictly inside band `band_index`.

    margin is E's depth in the band's inner range: min(band max - E,
    E - band min) over the sampled table less the rounding.  A positive
    margin certifies strict interiority because sampled extrema are
    attained band values up to that rounding.  theta_witness is the phase
    attaining the edge that realizes the margin.  touching_at_zero marks
    the all-even-period outcome at E = 0, where the middle bands meet in a
    single point and no interior witness exists.
    """

    band_index: int
    theta_witness: tuple[float, ...]
    margin: float
    touching_at_zero: bool = False


def _angles(q: PeriodVector, theta: Sequence[float], offsets: Sequence) -> np.ndarray:
    """The (r, d) full-circle angles 2 pi (theta_i + l_i / q_i) of r
    frequency offsets at one phase: theta is checked once, each offset by
    check_index.  _levels, _gradients and _curvatures give one result per row."""
    th = check_phase(q, theta)
    l = np.array([check_index(q, m) for m in offsets]).reshape(-1, q.d)
    return 2.0 * math.pi * (np.array(th) + l / np.array(q.q))


def _levels(angles: np.ndarray) -> np.ndarray:
    """Free level of each row, sum_i 2 cos(angle_i), summed left to right."""
    return sum((2.0 * np.cos(angles)).T)


def _gradients(angles: np.ndarray) -> np.ndarray:
    """Gradient of each row's level: component i is -4 pi sin(angle_i)."""
    return -4.0 * math.pi * np.sin(angles)


def _curvatures(angles: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Curvature of each row's level along the unit direction b:
    -4 pi^2 sum_i 2 cos(angle_i) b_i^2, summed left to right."""
    return -4.0 * math.pi**2 * sum((2.0 * np.cos(angles) * b**2).T)


def free_level(q: PeriodVector, theta: Sequence[float], l: Sequence[int]) -> float:
    """Closed-form free level; 1-periodic in each full-circle coordinate."""
    return float(_levels(_angles(q, theta, (l,)))[0])


def free_gradient(q: PeriodVector, theta: Sequence[float], l: Sequence[int]) -> np.ndarray:
    """Gradient of the free level: component i is -4 pi sin(2 pi x_i)."""
    return _gradients(_angles(q, theta, (l,)))[0]


def _direction(beta: Sequence[float], d: int) -> tuple[np.ndarray, float]:
    """beta as an array and its norm, checked to have d finite coordinates."""
    b = np.asarray(beta, dtype=float)
    if b.size != d:
        raise DomainError(f"direction has {b.size} coordinates, expected {d}")
    if not np.all(np.isfinite(b)):
        raise DomainError(f"direction coordinates must be finite, got {b.tolist()}")
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return b, float(np.linalg.norm(b))


def unit_direction(beta: Sequence[float], d: int) -> np.ndarray:
    """beta as an array, checked to have d finite coordinates and unit norm."""
    b, norm = _direction(beta, d)
    if abs(norm - 1.0) > _UNIT_TOL:
        raise DomainError(f"direction must be a unit vector, got norm {norm}")
    return b


def normalize_direction(beta: Sequence[float], d: int) -> np.ndarray:
    """beta divided by its norm, checked to have d finite coordinates and a
    finite nonzero norm.  Below 2^-511 the squares summed for the norm
    underflow (to 0 for --beta 1e-300,0), so such a beta is first divided by
    its largest |coordinate|."""
    b, norm = _direction(beta, d)
    if norm < 2.0**-511 and b.any():
        b = b / np.max(np.abs(b))
        norm = float(np.linalg.norm(b))
    if not 0.0 < norm < math.inf:
        raise DomainError(f"direction must have a finite nonzero norm, got {b.tolist()}")
    return b / norm


def second_order_coeff(
    q: PeriodVector,
    theta: Sequence[float],
    l: Sequence[int],
    beta: Sequence[float],
) -> float:
    """Directional curvature of the free level along a unit direction beta.

    Returns the coefficient S of t^2/2 in e(theta + t beta), namely
    -4 pi^2 sum_i 2 cos(2 pi x_i) beta_i^2.
    """
    b = unit_direction(beta, q.d)
    return float(_curvatures(_angles(q, theta, (l,)), b)[0])


def interior_witness(
    q: PeriodVector,
    E: float,
    grid: bandedges.GridSpec,
    workers: int = 1,
) -> WitnessResult:
    """Find a band holding E strictly inside, with a sampled certificate.

    Reads certified free band edges by BandTable.deepest: the band with
    the largest depth (smallest band index on ties) and the phase of its
    nearer edge; the margin is that depth's headroom after the inner range
    end.  A nonpositive margin means the sampling could not certify
    interiority at this energy.

    At E = 0 with all periods even no band can hold 0 inside: the fiber
    spectrum is symmetric under negation at every phase, so the middle
    bands pinch to a point there.  That case reports touching_at_zero with
    zero margin instead of failing.
    """
    if not abs(E) < 2 * q.d:
        raise DomainError(f"energy must satisfy |E| < {2 * q.d}, got {E}")
    table = bandedges.certified_edges(q, zero_potential(q), grid, workers=workers)
    if E == 0.0 and q.all_even:
        k = q.Q // 2
        return WitnessResult(k, table.theta_min(k), 0.0, touching_at_zero=True)
    k, depth, theta = table.deepest(E)
    return WitnessResult(k, theta, table.headroom(depth, inner=1), touching_at_zero=False)
