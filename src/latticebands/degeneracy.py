"""Perturb-and-count analysis of coincident free levels.

At special phases several free levels coincide.  Nudging the phase along a
unit direction beta splits them: members with a nonzero first-order term
follow its sign, members whose first-order term vanishes move with the sign
of the directional curvature (independently of the sign of the step).  This
module groups coincident levels, classifies members against a direction,
predicts the split, and counts it numerically.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ComputationError, DegenerateBeyondSecondOrder, DomainError
from .freebands import _angles, _curvatures, _gradients, _levels, unit_direction
from .lattice import (
    PeriodVector, check_index, check_phase, enumerate_lambda, is_integer, is_real,
)

__all__ = [
    "DegeneracyGroup",
    "DirectionClassification",
    "MoveCounts",
    "coincident_group",
    "classify",
    "count_moves",
    "predict_moves",
]

GROUP_TOL = 1e-9
ZERO_TOL = 1e-10
MAX_STEP = 1e-2

_RATIONAL_DENOM = 512
_RATIONAL_ATOL = 1e-12
# Largest lcm N of the angle denominators grouped exactly.  The table of
# x^k mod Phi_N has N phi(N) int64 entries: at most 8.3 MB up to this cap,
# but 1.6 GB at N = 29070 (theta = (1/171, 1/170) on a 6,6 cell).
MAX_CYCLOTOMIC_ORDER = 1024


@dataclass(frozen=True)
class DegeneracyGroup:
    """Frequency offsets whose free levels coincide at a fixed phase.

    position_offset counts the levels strictly above the group at this
    phase (with multiplicity), locating the group inside the sorted
    eigenvalue list: the members occupy sorted positions
    position_offset + 1 .. position_offset + r.
    """

    theta: tuple[float, ...]
    level: float
    members: tuple[tuple[int, ...], ...]
    position_offset: int

    @property
    def r(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DirectionClassification:
    """Group members split by first-order behavior along a unit direction.

    labels holds the per-member tag, aligned with the group's member order:
    "zero" for a vanishing gradient, "plus" for a member moving up to first
    order, "minus" for one moving down, and "orth" for a nonzero gradient
    orthogonal to the direction.  j_zero, j_plus, j_orth and j_minus count
    them.
    """

    beta: tuple[float, ...]
    labels: tuple[str, ...]

    j_zero = property(lambda self: self.labels.count("zero"))
    j_plus = property(lambda self: self.labels.count("plus"))
    j_orth = property(lambda self: self.labels.count("orth"))
    j_minus = property(lambda self: self.labels.count("minus"))
    total = property(lambda self: len(self.labels))


@dataclass(frozen=True)
class MoveCounts:
    """Counted splits at a finite step; ambiguous members void the count."""

    n_up: int
    n_down: int
    ambiguous: tuple[tuple[int, ...], ...]

    @property
    def conclusive(self) -> bool:
        return not self.ambiguous


def _as_fraction(x: float) -> Fraction | None:
    f = Fraction(x).limit_denominator(_RATIONAL_DENOM)
    return f if abs(float(f) - x) <= _RATIONAL_ATOL else None


def _cyclotomic(n: int) -> np.ndarray:
    """Integer coefficients of Phi_n, constant term first: the product of
    (x^(n/s) - 1)^((-1)^k) over the products s of k distinct primes of n.
    The factors with k even are multiplied in first; each with k odd then
    divides exactly, the quotient coefficients being q_j = q_{j-d} - p_j."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
    subsets = [s for k in range(len(primes) + 1) for s in itertools.combinations(primes, k)]
    poly = np.ones(1, dtype=np.int64)
    for s in sorted(subsets, key=lambda s: len(s) % 2):
        d = n // math.prod(s)
        if len(s) % 2 == 0:
            poly = np.pad(poly, (d, 0)) - np.pad(poly, (0, d))
        else:
            size = len(poly) - d
            blocks = np.pad(poly[:size], (0, -size % d)).reshape(-1, d)
            poly = -np.cumsum(blocks, axis=0).ravel()[:size]
    return poly


@functools.lru_cache(maxsize=4)
def _power_residues(n: int) -> np.ndarray:
    """(n, phi(n)) integer table whose row k is x^k mod Phi_n: the
    coordinates of zeta^k, zeta = exp(2 pi i / n), in the basis 1, zeta,
    ..., zeta^(phi(n) - 1) of Q(zeta)."""
    phi = _cyclotomic(n)
    deg = len(phi) - 1
    rows = np.zeros((n, deg), dtype=np.int64)
    rows[:deg] = np.eye(deg, dtype=np.int64)
    for k in range(deg, n):
        rows[k, 1:] = rows[k - 1, :-1]
        rows[k] -= rows[k - 1, -1] * phi[:deg]
    rows.setflags(write=False)
    return rows


def _exact_split(
    q: PeriodVector, th: tuple[float, ...], offsets: tuple[tuple[int, ...], ...], t: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Double levels at the rational phase th snaps to and which of them equal
    level t exactly, or None if th does not snap or N > MAX_CYCLOTOMIC_ORDER.

    With N the lcm of the angle denominators and zeta = exp(2 pi i / N), a
    level is sum_i zeta^k_i + zeta^-k_i: an integer polynomial in zeta of
    degree below N.  Reduced modulo the minimal polynomial Phi_N of zeta it
    is unique, so two levels are equal iff their reduced coordinates are, and
    a level is 0 iff they all vanish: such levels come back as 0.0.
    Unequal levels are ordered by their doubles, which is safe when they
    differ by more than the rounding bound; otherwise ComputationError.
    """
    fracs = [_as_fraction(x) for x in th]
    if None in fracs:
        return None
    n = math.lcm(*q.q, *(f.denominator for f in fracs))
    if n > MAX_CYCLOTOMIC_ORDER:
        return None
    base = np.array([f.numerator * (n // f.denominator) % n for f in fracs])
    k = (base + np.array(offsets) * np.array([n // qi for qi in q.q])) % n
    coords = _power_residues(n)[np.concatenate([k, -k % n], axis=1)].sum(axis=1)
    equal = (coords == coords[t]).all(axis=1)
    # A term 2 cos(2 pi k / N) errs by under 2^-47 (a few ulp in the angle and
    # the cosine), a sum of d terms by under d^2 2^-46 (with d - 1 roundings
    # of partial sums below 2d), so a difference errs by under d^2 2^-44.
    levels = _levels(2.0 * np.pi * k / n)
    bound = q.d**2 * 2.0**-44
    close = ~equal & (np.abs(levels - levels[t]) <= bound)
    if close.any():
        other = offsets[int(np.argmax(close))]
        raise ComputationError(
            f"levels of offsets {offsets[t]} and {other} differ but their doubles "
            f"are within the rounding bound {bound:.1e} at phase {th}"
        )
    if not coords[t].any():  # the target level is exactly 0
        levels[equal] = 0.0
    return levels, equal


def coincident_group(
    q: PeriodVector,
    theta: Sequence[float],
    target_l: Sequence[int],
) -> DegeneracyGroup:
    """All frequency offsets whose level matches the target's at this phase.

    A phase whose coordinates snap to fractions (denominator <= 512, within
    1e-12) with angle denominators of lcm N <= MAX_CYCLOTOMIC_ORDER groups
    exactly, in cyclotomic integers (see _exact_split); level is then the
    double sum at the snapped phase, or 0.0 for a level that is exactly 0.
    Any other phase groups levels within GROUP_TOL.  Members come back in
    row-major order and always include the target.
    """
    th = check_phase(q, theta)
    target = check_index(q, target_l)
    offsets = enumerate_lambda(q)
    t = offsets.index(target)
    split = _exact_split(q, th, offsets, t)
    if split is None:
        levels = _levels(_angles(q, th, offsets))
        equal = np.abs(levels - levels[t]) <= GROUP_TOL
        above = levels - levels[t] > GROUP_TOL
    else:
        levels, equal = split
        above = ~equal & (levels > levels[t])
    members = tuple(m for m, eq in zip(offsets, equal) if eq)
    return DegeneracyGroup(th, float(levels[t]), members, int(above.sum()))


def classify(
    q: PeriodVector,
    g: DegeneracyGroup,
    beta: Sequence[float],
) -> DirectionClassification:
    """Partition group members by their first-order term along beta.

    Every member lands in exactly one bucket, so the counts always sum to r.
    """
    b = unit_direction(beta, q.d)
    return _classify(_angles(q, g.theta, g.members), b)


def _classify(angles: np.ndarray, b: np.ndarray) -> DirectionClassification:
    """classify on the members' angles and a checked unit direction b."""
    grads = _gradients(angles)
    slopes = grads @ b
    zero = np.linalg.norm(grads, axis=1) <= ZERO_TOL
    labels = tuple(
        "zero" if z else "plus" if s > ZERO_TOL else "minus" if s < -ZERO_TOL else "orth"
        for z, s in zip(zero.tolist(), slopes.tolist())
    )
    return DirectionClassification(beta=tuple(b.tolist()), labels=labels)


def count_moves(
    q: PeriodVector,
    g: DegeneracyGroup,
    beta: Sequence[float],
    t: float,
) -> MoveCounts:
    """Count members above and below the old level at phase theta + t beta.

    A member within |t|^3 of the old level is ambiguous at this step size
    (the cubic remainder could account for its offset); shrink t to resolve.
    """
    if not is_real(t):
        raise DomainError(f"step must be a real number, got {t!r}")
    t = float(t)
    if not 0.0 < abs(t) <= MAX_STEP:
        raise DomainError(f"step must satisfy 0 < |t| <= {MAX_STEP}, got {t}")
    b = unit_direction(beta, q.d)
    shifted = np.array(check_phase(q, g.theta)) + t * b
    values = _levels(_angles(q, shifted, g.members))
    guard = abs(t) ** 3
    up = values > g.level + guard
    down = values < g.level - guard
    ambiguous = tuple(m for m, a in zip(g.members, ~(up | down)) if a)
    return MoveCounts(int(up.sum()), int(down.sum()), ambiguous)


def predict_moves(
    q: PeriodVector,
    g: DegeneracyGroup,
    beta: Sequence[float],
    sign_of_t: int,
    classification: DirectionClassification | None = None,
) -> tuple[int, int]:
    """Predicted (up, down) split for an infinitesimal step of the given sign.

    First-order members follow sign_of_t times their slope.  Members whose
    first-order term vanishes move with the sign of the directional
    curvature, regardless of the sign of the step.

    Raises
    ------
    DomainError
        If a classification passed in is not one of this group along beta.
    DegenerateBeyondSecondOrder
        If a member with vanishing first-order term also has (numerically)
        vanishing curvature along beta.
    """
    if not is_integer(sign_of_t) or sign_of_t not in (1, -1):
        raise DomainError(f"sign_of_t must be +1 or -1, got {sign_of_t!r}")
    b = unit_direction(beta, q.d)
    angles = _angles(q, g.theta, g.members)
    cls = classification if classification is not None else _classify(angles, b)
    if len(cls.labels) != g.r:
        raise DomainError("classification does not match the group")
    if cls.beta != tuple(b.tolist()):
        raise DomainError(f"classification is along {cls.beta}, not along the direction {tuple(b.tolist())}")
    labels = np.array(cls.labels)
    first = (labels == "plus") | (labels == "minus")
    curv = _curvatures(angles, b)
    flat = ~first & (np.abs(curv) <= ZERO_TOL)
    if flat.any():
        raise DegenerateBeyondSecondOrder(
            f"member {g.members[int(np.argmax(flat))]} vanishes to second order "
            f"along {tuple(b.tolist())}"
        )
    up = np.where(first, (labels == "plus") == (sign_of_t > 0), curv > 0)
    n_up = int(up.sum())
    return n_up, g.r - n_up
