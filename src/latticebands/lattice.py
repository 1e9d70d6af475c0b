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


def _integers(values, what: str) -> tuple[int, ...]:
    """values as an int tuple; DomainError unless every entry is integral."""
    try:
        items = tuple(values)
        vals = tuple(int(x) for x in items)
    except (TypeError, ValueError, OverflowError):
        vals = None
    if vals is None or vals != items:
        raise DomainError(f"{what} must be integers, got {values!r}")
    return vals


@dataclass(frozen=True)
class PeriodVector:
    """Componentwise periods (q_1, ..., q_d) of the potential."""

    q: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = _integers(self.q, "periods")
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
        object.__setattr__(self, "l", _integers(self.l, "frequency offsets"))


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
    """Coerce a phase argument (Phase or plain sequence) to a float tuple,
    rejecting non-finite coordinates."""
    vals = theta.theta if isinstance(theta, Phase) else tuple(float(x) for x in theta)
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"phase coordinates must be finite, got {vals!r}")
    return vals


def _check_dims(q: PeriodVector, values: Sequence, what: str) -> None:
    if len(values) != q.d:
        raise DomainError(f"{what} has {len(values)} coordinates, expected {q.d}")


def check_phase(q: PeriodVector, theta: Phase | Sequence[float]) -> tuple[float, ...]:
    """A phase argument's finite coordinates, checked to number q.d."""
    vals = theta_values(theta)
    _check_dims(q, vals, "phase")
    return vals


def check_index(q: PeriodVector, l: FourierIndex | Sequence[int]) -> tuple[int, ...]:
    """Validate componentwise bounds of a frequency offset against q."""
    vals = l.l if isinstance(l, FourierIndex) else FourierIndex(l).l
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
    coords = _integers(n, "site coordinates")
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
    vals = check_phase(q, values)
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
    av, bv = check_phase(q, a), check_phase(q, b)
    total = 0.0
    for ai, bi, qi in zip(av, bv, q.q):
        frac = ((ai - bi) * qi) % 1.0
        total += (min(frac, 1.0 - frac) / qi) ** 2
    return math.sqrt(total)
