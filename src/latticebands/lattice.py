"""Index bookkeeping for potentials periodic along each lattice direction.

Conventions used throughout the package:

* multi-indices are linearized row-major, last coordinate fastest,
* phase coordinate i lives on a circle of circumference 1/q_i,
* a full-circle coordinate x in [0, 1) splits as x = theta + l/q_i with
  theta in [0, 1/q_i) and l in {0, ..., q_i - 1}.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "PeriodVector",
    "FourierIndex",
    "SiteIndex",
    "Phase",
    "period",
    "enumerate_lambda",
    "site_from_coords",
    "site_from_linear",
    "fold_coordinate",
    "fold_phase",
    "phase",
    "torus_distance",
]


@dataclass(frozen=True)
class PeriodVector:
    """Componentwise periods (q_1, ..., q_d) of the potential."""

    q: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            vals = tuple(int(x) for x in self.q)
        except (TypeError, ValueError):
            vals = None
        if vals is None or any(v != x for v, x in zip(vals, self.q)):
            raise DomainError(f"periods must be integers, got {self.q!r}")
        if len(vals) < 2:
            raise DomainError(f"need at least two lattice directions, got {vals!r}")
        if any(v < 1 for v in vals):
            raise DomainError(f"periods must be positive, got {vals!r}")
        object.__setattr__(self, "q", vals)

    @property
    def d(self) -> int:
        return len(self.q)

    @property
    def Q(self) -> int:
        """Number of sites in one period cell."""
        return math.prod(self.q)

    @property
    def all_even(self) -> bool:
        return all(qi % 2 == 0 for qi in self.q)


@dataclass(frozen=True)
class FourierIndex:
    """Frequency offset l with 0 <= l_i <= q_i - 1 componentwise."""

    l: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", tuple(int(x) for x in self.l))


@dataclass(frozen=True)
class SiteIndex:
    """A cell site, both as coordinates and as its row-major linear index."""

    n: tuple[int, ...]
    linear: int


@dataclass(frozen=True)
class Phase:
    """A point on the reduced phase torus, coordinate i in [0, 1/q_i).

    Construct through :func:`phase` or :func:`fold_phase` so wraparound is
    handled in one place.
    """

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))


def period(values: Iterable[int]) -> PeriodVector:
    """Build a :class:`PeriodVector` from any integer iterable."""
    try:
        values = tuple(values)
    except TypeError:
        raise DomainError(f"periods must be an iterable of integers, got {values!r}") from None
    return PeriodVector(values)


def theta_values(theta: Phase | Sequence[float]) -> tuple[float, ...]:
    """Coerce a phase argument (Phase or plain sequence) to a float tuple."""
    if isinstance(theta, Phase):
        return theta.theta
    return tuple(float(x) for x in theta)


def index_values(l: FourierIndex | Sequence[int]) -> tuple[int, ...]:
    """Coerce a frequency-offset argument to an int tuple."""
    if isinstance(l, FourierIndex):
        return l.l
    return tuple(int(x) for x in l)


def _check_dims(q: PeriodVector, values: Sequence, what: str) -> None:
    if len(values) != q.d:
        raise DomainError(f"{what} has {len(values)} coordinates, expected {q.d}")


def check_index(q: PeriodVector, l: FourierIndex | Sequence[int]) -> tuple[int, ...]:
    """Validate componentwise bounds of a frequency offset against q."""
    vals = index_values(l)
    _check_dims(q, vals, "frequency offset")
    for i, (li, qi) in enumerate(zip(vals, q.q)):
        if not 0 <= li < qi:
            raise DomainError(f"offset component {i} out of range: {li} not in [0, {qi})")
    return vals


def enumerate_lambda(q: PeriodVector) -> tuple[FourierIndex, ...]:
    """All Q frequency offsets in row-major order (last coordinate fastest)."""
    return tuple(FourierIndex(l) for l in itertools.product(*[range(qi) for qi in q.q]))


def site_from_coords(q: PeriodVector, n: Sequence[int]) -> SiteIndex:
    """Encode cell coordinates as a site with its row-major linear index."""
    coords = tuple(int(x) for x in n)
    _check_dims(q, coords, "site")
    for i, (ni, qi) in enumerate(zip(coords, q.q)):
        if not 0 <= ni < qi:
            raise DomainError(f"site coordinate {i} out of range: {ni} not in [0, {qi})")
    linear = 0
    for ni, qi in zip(coords, q.q):
        linear = linear * qi + ni
    return SiteIndex(coords, linear)


def site_from_linear(q: PeriodVector, linear: int) -> SiteIndex:
    """Decode a row-major linear index back to cell coordinates."""
    k = int(linear)
    if not 0 <= k < q.Q:
        raise DomainError(f"linear index out of range: {k} not in [0, {q.Q})")
    coords = []
    rem = k
    for qi in reversed(q.q):
        coords.append(rem % qi)
        rem //= qi
    return SiteIndex(tuple(reversed(coords)), k)


def fold_coordinate(x: float, qi: int) -> tuple[float, int]:
    """Split one full-circle coordinate x in [0, 1) as theta + l/qi.

    Returns (theta, l) with theta in [0, 1/qi) and l in {0, ..., qi - 1}.
    Reconstruction theta + l/qi agrees with x to a few machine epsilons.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"full-circle coordinate out of range: {x!r}")
    l = min(int(math.floor(x * qi)), qi - 1)
    theta = x - l / qi
    if theta < 0.0:
        l -= 1
        theta = x - l / qi
    if theta >= 1.0 / qi and l + 1 <= qi - 1:
        l += 1
        theta = x - l / qi
    return theta, l


def fold_phase(q: PeriodVector, x: Sequence[float]) -> tuple[Phase, FourierIndex]:
    """Fold a full-circle phase into the reduced torus plus a frequency offset."""
    vals = tuple(float(v) for v in x)
    _check_dims(q, vals, "phase")
    thetas = []
    ls = []
    for xi, qi in zip(vals, q.q):
        t, l = fold_coordinate(xi, qi)
        thetas.append(t)
        ls.append(l)
    return Phase(tuple(thetas)), FourierIndex(tuple(ls))


def phase(q: PeriodVector, values: Sequence[float]) -> Phase:
    """Wrap arbitrary real coordinates onto the reduced torus."""
    vals = tuple(float(v) for v in values)
    _check_dims(q, vals, "phase")
    out = []
    for v, qi in zip(vals, q.q):
        w = 1.0 / qi
        t = v % w
        if t >= w:  # guard against rounding at the seam
            t -= w
        out.append(t)
    return Phase(tuple(out))


def torus_distance(q: PeriodVector, a: Phase | Sequence[float], b: Phase | Sequence[float]) -> float:
    """Distance on the product of circles of circumference 1/q_i.

    Per coordinate this is the distance of a_i - b_i to the nearest multiple
    of 1/q_i; the coordinates combine in the Euclidean norm.
    """
    av = theta_values(a)
    bv = theta_values(b)
    _check_dims(q, av, "phase")
    if len(av) != len(bv):
        raise DomainError(f"phase dimension mismatch: {len(av)} vs {len(bv)}")
    total = 0.0
    for ai, bi, qi in zip(av, bv, q.q):
        frac = ((ai - bi) * qi) % 1.0
        total += (min(frac, 1.0 - frac) / qi) ** 2
    return math.sqrt(total)
