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
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "PeriodVector",
    "period",
    "enumerate_lambda",
    "phase",
]


def is_integer(x) -> bool:
    """True for Python and numpy integers, False for bools and floats: the one
    rule for every integer input (periods, offsets, grid counts,
    budgets, workers, seeds).  A plain int is answered before the (slower) ABC check."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def is_real(x) -> bool:
    """True for Python and numpy reals, False for bools and strings: the one
    rule for every real input (potential values, amplitudes, steps)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _integers(values, what: str) -> tuple[int, ...]:
    """values as an int tuple; DomainError unless every entry is_integer."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or not all(map(is_integer, items)):
        raise DomainError(f"{what} must be integers, got {values!r}")
    return tuple(map(int, items))


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


def period(values: Iterable[int]) -> PeriodVector:
    """Build a :class:`PeriodVector` from any integer iterable."""
    return PeriodVector(values)


def check_phases(q: PeriodVector, theta) -> tuple[np.ndarray, bool]:
    """The one phase parser: a d-vector or an (n, d) stack of them as
    an (n, d) float array of finite coordinates, d = q.d, and whether it was
    a single phase (n = 1) rather than a stack.  A float64 (n, d) ndarray,
    as every probe and its folded phases are, is returned as it is once
    found finite; any other input, and every rejection, takes the parser."""
    if type(theta) is np.ndarray and theta.dtype == np.float64 and theta.shape[1:] == (q.d,):
        if np.isfinite(theta).all():
            return theta, False
    try:
        th = np.asarray(theta, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"phase must be a d-vector or an (n, d) stack of them: {exc}") from None
    single = th.ndim == 1
    if single:
        th = th[None, :]
    if th.ndim != 2:
        raise DomainError(f"phase must be a d-vector or an (n, d) stack of them, got shape {th.shape}")
    if th.shape[1] != q.d:
        raise DomainError(f"phase has {th.shape[1]} coordinates, expected {q.d}")
    bad = ~np.isfinite(th).all(axis=1)
    if bad.any():
        raise DomainError(f"phase coordinates must be finite, got {th[bad][0].tolist()}")
    return th, single


def check_phase(q: PeriodVector, theta: Sequence[float]) -> tuple[float, ...]:
    """One phase argument as a tuple of d Python floats, read by check_phases;
    a stack is rejected.  Such a tuple of finite floats is taken as it is."""
    if (type(theta) is tuple and len(theta) == q.d and all(type(x) is float for x in theta)
            and all(map(math.isfinite, theta))):
        return theta
    th, single = check_phases(q, theta)
    if not single:
        raise DomainError(f"expected one phase, got a stack of shape {th.shape}")
    return tuple(th[0].tolist())


def check_index(q: PeriodVector, l: Sequence[int]) -> tuple[int, ...]:
    """A frequency offset l, 0 <= l_i < q_i componentwise, as an int tuple."""
    vals = _integers(l, "frequency offsets")
    if len(vals) != q.d:
        raise DomainError(f"frequency offset has {len(vals)} coordinates, expected {q.d}")
    for i, (li, qi) in enumerate(zip(vals, q.q)):
        if not 0 <= li < qi:
            raise DomainError(f"offset component {i} out of range: {li} not in [0, {qi})")
    return vals


def enumerate_lambda(q: PeriodVector) -> tuple[tuple[int, ...], ...]:
    """All Q frequency offsets as int tuples in row-major order (last
    coordinate fastest)."""
    return tuple(itertools.product(*[range(qi) for qi in q.q]))


def phase(q: PeriodVector, values: Sequence[float]) -> tuple[float, ...]:
    """Wrap arbitrary real coordinates onto the reduced torus as d Python floats."""
    vals = check_phase(q, values)
    out = []
    for v, qi in zip(vals, q.q):
        w = 1.0 / qi
        t = v % w
        if t >= w:  # guard against rounding at the seam
            t -= w
        out.append(t)
    return tuple(out)
