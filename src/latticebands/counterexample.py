"""Sharpness construction: a small potential that opens a gap at zero.

With every period even, the staggered sign pattern (-1)^{n_1 + ... + n_d}
anticommutes with the hopping part, which pushes the spectrum away from
zero symmetrically.  The potential built here perturbs that pattern at one
site per cell so its minimal period is exactly q while keeping the gap:
the operator norm of the defect is cubic in the coupling, far smaller than
the linear-size gap the staggered part opens.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bandedges
from .errors import DomainError
from .floquet import Potential, potential
from .lattice import PeriodVector, site_from_linear

__all__ = [
    "DELTA_MAX_DEFAULT",
    "CounterexampleSpec",
    "NeighborSumReport",
    "GapCheck",
    "build_vq",
    "build_dimer",
    "neighbor_sum_check",
    "verify_gap_at_zero",
    "dimer_oracle_spectrum",
]

DELTA_MAX_DEFAULT = 0.25
# neighbor_sum_check compares every neighbor sum to its expected value to within this.
NEIGHBOR_SUM_TOL = 1e-15


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the gap-opening potential.

    The construction requires every period even: with any odd period the
    staggered pattern is not q-periodic and, more to the point, small
    potentials provably cannot open a gap.  Couplings above
    DELTA_MAX_DEFAULT are rejected unless force is set, since the gap
    argument is perturbative.
    """

    q: PeriodVector
    delta: float
    force: bool = False

    def __post_init__(self) -> None:
        if not self.q.all_even:
            raise DomainError(
                f"every period must be even for the gap construction, got {self.q.q}; "
                "with an odd period small potentials keep the spectrum gapless"
            )
        if not self.delta > 0:
            raise DomainError(f"coupling must be positive, got {self.delta}")
        if self.delta > DELTA_MAX_DEFAULT and not self.force:
            raise DomainError(
                f"coupling {self.delta} exceeds {DELTA_MAX_DEFAULT}; "
                "pass force=True to build anyway"
            )

    @functools.cached_property
    def _vq(self) -> Potential:
        """The potential of build_vq, built once per spec, so every sweep of
        it shares the reductions kept on the Potential."""
        q, delta = self.q, self.delta
        values = np.empty(q.Q)
        for a in range(q.Q):
            n = site_from_linear(q, a).n
            if all(c == 0 for c in n):
                values[a] = (1.0 - delta**2 / q.d) * delta
            else:
                values[a] = delta * _parity(n)
        return potential(q, values)


@dataclass(frozen=True, eq=False)
class NeighborSumReport:
    """Outcome of the neighbor-sum identity check.

    For the gap-opening potential, V(n) + V(n + b_i) must vanish except when
    the bond touches the marked origin site, where it equals `expected`
    (which is -delta^3 / d).  pure_dimer flags the plain staggered pattern,
    whose neighbor sums vanish everywhere.
    """

    ok: bool
    pure_dimer: bool
    expected: float
    failures: tuple[tuple[tuple[int, ...], int, float, float], ...]


@dataclass(frozen=True)
class GapCheck:
    """Grid evidence that the spectrum avoids a window around zero."""

    delta: float
    margin: float
    slack: float
    passes: bool
    inconclusive: bool

    @property
    def certified_margin(self) -> float:
        return self.margin - self.slack


def _parity(n: tuple[int, ...]) -> int:
    return -1 if sum(n) % 2 else 1


def build_vq(spec: CounterexampleSpec) -> Potential:
    """Staggered potential with a marked origin, sup norm exactly delta.

    V(n) = (1 - delta^2/d) delta at the origin of each cell and
    delta (-1)^{n_1 + ... + n_d} elsewhere.  The origin defect breaks every
    proper sub-period, so the minimal period is exactly q.  Each spec
    instance gives one Potential object, whatever the number of calls.
    """
    return spec._vq


def build_dimer(q: PeriodVector, delta: float) -> Potential:
    """Plain staggered potential delta (-1)^{n_1 + ... + n_d} stored over q."""
    if not q.all_even:
        raise DomainError(
            f"staggered pattern needs even periods to be q-periodic, got {q.q}"
        )
    if not delta > 0:
        raise DomainError(f"coupling must be positive, got {delta}")
    values = np.array([delta * _parity(site_from_linear(q, a).n) for a in range(q.Q)])
    return potential(q, values)


def neighbor_sum_check(V: Potential, delta: float) -> NeighborSumReport:
    """Check the neighbor-sum identity of the gap-opening potential.

    For every site n and direction i, V(n) + V(n + b_i) (periodic wrap) must
    equal -delta^3/d exactly when the bond touches the cell origin (n at the
    origin or at origin - b_i) and zero otherwise, to within NEIGHBOR_SUM_TOL.
    """
    q = V.q
    expected = -(delta**3) / q.d
    arr = V.values.reshape(q.q)
    failures = []
    all_zero = True
    for axis, qi in enumerate(q.q):
        sums = arr + np.roll(arr, -1, axis=axis)
        want = np.zeros_like(sums)
        origin = tuple(0 for _ in q.q)
        before = tuple(qi - 1 if j == axis else 0 for j in range(q.d))
        want[origin] = expected
        want[before] = expected
        bad = np.argwhere(np.abs(sums - want) > NEIGHBOR_SUM_TOL)
        all_zero = all_zero and bool(np.all(np.abs(sums) <= NEIGHBOR_SUM_TOL))
        for idx in bad:
            site = tuple(int(x) for x in idx)
            failures.append((site, axis, float(sums[site]), float(want[site])))
    return NeighborSumReport(
        ok=not failures,
        pure_dimer=all_zero,
        expected=expected,
        failures=tuple(failures),
    )


def verify_gap_at_zero(
    spec: CounterexampleSpec,
    grid: bandedges.GridSpec,
    workers: int = 1,
) -> GapCheck:
    """Measure the distance from zero to the sampled spectrum.

    margin is min_abs_eigenvalue's distance from 0 to the sampled bands,
    read off the band extrema: for this potential no band's sampled range
    holds 0 (the spectrum avoids (-delta, delta - delta^3/d)), so it is the
    smallest |eigenvalue| over the grid.  Subtracting the Lipschitz slack
    lower-bounds the true distance.  The check passes when
    the margin exceeds delta/2 and is inconclusive when the slack eats the
    headroom (margin - slack <= delta/2), meaning the grid is too coarse to
    certify the claim.
    """
    q = spec.q
    V = build_vq(spec)
    margin, _ = bandedges.min_abs_eigenvalue(q, V, grid, workers=workers)
    slack = bandedges.certified_slack(q, grid)
    passes = margin > spec.delta / 2.0
    inconclusive = margin - slack <= spec.delta / 2.0
    return GapCheck(
        delta=spec.delta,
        margin=margin,
        slack=slack,
        passes=passes,
        inconclusive=inconclusive,
    )


def dimer_oracle_spectrum(d: int, delta: float) -> tuple[bandedges.Interval, bandedges.Interval]:
    """Exact spectrum of the staggered-potential operator.

    The staggered sign pattern P anticommutes with the hopping part H0, so
    (H0 + delta P)^2 = H0^2 + delta^2 and the spectrum is the symmetric pair
    of intervals [-sqrt(4 d^2 + delta^2), -delta] and its mirror image.
    """
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if not delta > 0:
        raise DomainError(f"coupling must be positive, got {delta}")
    hi = math.sqrt(4.0 * d * d + delta * delta)
    return (
        bandedges.Interval(-hi, -delta),
        bandedges.Interval(delta, hi),
    )
