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
from .freebands import free_gradient, free_level, second_order_coeff, unit_direction
from .lattice import (
    FourierIndex,
    PeriodVector,
    Phase,
    check_index,
    check_phase,
    enumerate_lambda,
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

    theta: Phase
    level: float
    members: tuple[FourierIndex, ...]
    position_offset: int

    @property
    def r(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DirectionClassification:
    """Group members split by first-order behavior along a unit direction.

    j_zero counts members with vanishing gradient, j_plus those moving up to
    first order, j_minus those moving down, and j_orth those with a nonzero
    gradient orthogonal to the direction.  labels holds the per-member tag
    aligned with the group's member order.
    """

    beta: tuple[float, ...]
    j_zero: int
    j_plus: int
    j_orth: int
    j_minus: int
    labels: tuple[str, ...]

    @property
    def total(self) -> int:
        return self.j_zero + self.j_plus + self.j_orth + self.j_minus


@dataclass(frozen=True)
class MoveCounts:
    """Counted splits at a finite step; ambiguous members void the count."""

    n_up: int
    n_down: int
    ambiguous: tuple[FourierIndex, ...]

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
    q: PeriodVector, th: tuple[float, ...], offsets: tuple[FourierIndex, ...], t: int
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
    k = (base + np.array([m.l for m in offsets]) * np.array([n // qi for qi in q.q])) % n
    coords = _power_residues(n)[np.concatenate([k, -k % n], axis=1)].sum(axis=1)
    equal = (coords == coords[t]).all(axis=1)
    # A term 2 cos(2 pi k / N) errs by under 2^-47 (a few ulp in the angle and
    # the cosine), a sum of d terms by under d^2 2^-46 (with d - 1 roundings
    # of partial sums below 2d), so a difference errs by under d^2 2^-44.
    levels = (2.0 * np.cos(2.0 * np.pi * k / n)).sum(axis=1)
    bound = q.d**2 * 2.0**-44
    close = ~equal & (np.abs(levels - levels[t]) <= bound)
    if close.any():
        other = offsets[int(np.argmax(close))]
        raise ComputationError(
            f"levels of offsets {offsets[t].l} and {other.l} differ but their doubles "
            f"are within the rounding bound {bound:.1e} at phase {th}"
        )
    if not coords[t].any():  # the target level is exactly 0
        levels[equal] = 0.0
    return levels, equal


def coincident_group(
    q: PeriodVector,
    theta: Phase | Sequence[float],
    target_l: FourierIndex | Sequence[int],
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
    target = FourierIndex(check_index(q, target_l))
    offsets = enumerate_lambda(q)
    t = offsets.index(target)
    split = _exact_split(q, th, offsets, t)
    if split is None:
        levels = np.array([free_level(q, th, m) for m in offsets])
        equal = np.abs(levels - levels[t]) <= GROUP_TOL
        above = levels - levels[t] > GROUP_TOL
    else:
        levels, equal = split
        above = ~equal & (levels > levels[t])
    members = tuple(m for m, eq in zip(offsets, equal) if eq)
    phase_obj = theta if isinstance(theta, Phase) else Phase(th)
    return DegeneracyGroup(phase_obj, float(levels[t]), members, int(above.sum()))


def classify(
    q: PeriodVector,
    g: DegeneracyGroup,
    beta: Sequence[float],
) -> DirectionClassification:
    """Partition group members by their first-order term along beta.

    Every member lands in exactly one bucket, so the counts always sum to r.
    """
    b = unit_direction(beta, q.d)
    labels = []
    for member in g.members:
        grad = free_gradient(q, g.theta, member)
        if float(np.linalg.norm(grad)) <= ZERO_TOL:
            labels.append("zero")
            continue
        slope = float(b @ grad)
        if slope > ZERO_TOL:
            labels.append("plus")
        elif slope < -ZERO_TOL:
            labels.append("minus")
        else:
            labels.append("orth")
    return DirectionClassification(
        beta=tuple(float(x) for x in b),
        j_zero=labels.count("zero"),
        j_plus=labels.count("plus"),
        j_orth=labels.count("orth"),
        j_minus=labels.count("minus"),
        labels=tuple(labels),
    )


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
    t = float(t)
    if not 0.0 < abs(t) <= MAX_STEP:
        raise DomainError(f"step must satisfy 0 < |t| <= {MAX_STEP}, got {t}")
    b = unit_direction(beta, q.d)
    shifted = tuple(x + t * bi for x, bi in zip(check_phase(q, g.theta), b))
    guard = abs(t) ** 3
    n_up = 0
    n_down = 0
    ambiguous = []
    for member in g.members:
        value = free_level(q, shifted, member)
        if value > g.level + guard:
            n_up += 1
        elif value < g.level - guard:
            n_down += 1
        else:
            ambiguous.append(member)
    return MoveCounts(n_up, n_down, tuple(ambiguous))


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
    DegenerateBeyondSecondOrder
        If a member with vanishing first-order term also has (numerically)
        vanishing curvature along beta.
    """
    if sign_of_t not in (1, -1):
        raise DomainError(f"sign_of_t must be +1 or -1, got {sign_of_t!r}")
    b = unit_direction(beta, q.d)
    cls = classification if classification is not None else classify(q, g, b)
    if len(cls.labels) != g.r:
        raise DomainError("classification does not match the group")
    n_up = 0
    n_down = 0
    for member, label in zip(g.members, cls.labels):
        if label in ("plus", "minus"):
            slope = 1.0 if label == "plus" else -1.0
            if sign_of_t * slope > 0:
                n_up += 1
            else:
                n_down += 1
            continue
        curv = second_order_coeff(q, g.theta, member, b)
        if abs(curv) <= ZERO_TOL:
            raise DegenerateBeyondSecondOrder(
                f"member {member.l} vanishes to second order along {tuple(b)}"
            )
        if curv > 0:
            n_up += 1
        else:
            n_down += 1
    return n_up, n_down
