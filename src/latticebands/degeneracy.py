"""Perturb-and-count analysis of coincident free levels.

At special phases several free levels coincide.  Nudging the phase along a
unit direction beta splits them: members with a nonzero first-order term
follow its sign, members whose first-order term vanishes move with the sign
of the directional curvature (independently of the sign of the step).  This
module groups coincident levels, classifies members against a direction,
predicts the split, and counts it numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from .errors import DegenerateBeyondSecondOrder, DomainError
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


def _exact_levels(q: PeriodVector, fracs: list[Fraction]):
    """Levels at an exactly rational phase, evaluated at 60 digits.

    Coincidences at the special rational phases are genuine algebraic
    identities; 60 digits separates them cleanly from near misses that a
    double-precision tolerance could confuse.
    """
    out = []
    with mpmath.workdps(60):
        for member in enumerate_lambda(q):
            acc = mpmath.mpf(0)
            for i, qi in enumerate(q.q):
                angle = 2 * (fracs[i] + Fraction(member.l[i], qi))
                acc += 2 * mpmath.cospi(mpmath.mpf(angle.numerator) / angle.denominator)
            out.append((member, acc))
    return out


def coincident_group(
    q: PeriodVector,
    theta: Phase | Sequence[float],
    target_l: FourierIndex | Sequence[int],
) -> DegeneracyGroup:
    """All frequency offsets whose level matches the target's at this phase.

    Phases with small-denominator rational coordinates take an exact path:
    levels are recomputed in high precision so that grouping does not hinge
    on a double-precision tolerance.  Members come back in row-major order
    and always include the target.
    """
    th = check_phase(q, theta)
    target = FourierIndex(check_index(q, target_l))
    fracs = [_as_fraction(x) for x in th]
    if all(f is not None for f in fracs):
        pairs = _exact_levels(q, fracs)
        target_level = next(lv for m, lv in pairs if m == target)
        cut = mpmath.mpf("1e-45")
        members = tuple(m for m, lv in pairs if abs(lv - target_level) < cut)
        above = sum(1 for _, lv in pairs if lv - target_level >= cut)
        level = float(target_level)
    else:
        pairs = [(m, free_level(q, th, m)) for m in enumerate_lambda(q)]
        target_level = next(lv for m, lv in pairs if m == target)
        members = tuple(m for m, lv in pairs if abs(lv - target_level) <= GROUP_TOL)
        above = sum(1 for _, lv in pairs if lv - target_level > GROUP_TOL)
        level = float(target_level)
    phase_obj = theta if isinstance(theta, Phase) else Phase(th)
    return DegeneracyGroup(phase_obj, level, members, above)


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
