"""Fiber operators of a periodic lattice Schrodinger operator.

The operator acts on complex sequences over the integer lattice as the sum
of nearest-neighbor hops plus a real periodic on-site potential.  Restricting
to quasi-periodic boundary conditions with phase theta turns it into a finite
Hermitian matrix on one period cell; the spectrum of the full operator is the
union of the fiber spectra over the reduced phase torus.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ComputationError, DomainError
from .lattice import (
    PeriodVector,
    Phase,
    enumerate_lambda,
    period,
    site_from_linear,
    theta_values,
)

__all__ = [
    "Potential",
    "potential",
    "zero_potential",
    "random_potential",
    "load_potential",
    "parse_potential",
    "assemble",
    "eigenvalues_sorted_desc",
    "minimal_period",
]


@dataclass(frozen=True, eq=False)
class Potential:
    """Real potential values over one period cell, row-major site order."""

    q: PeriodVector
    values: np.ndarray

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def value_at(self, linear: int) -> float:
        return float(self.values[linear])


def potential(q: PeriodVector, values: Sequence[float]) -> Potential:
    """Validate and freeze a potential given as Q reals in row-major order."""
    arr = np.asarray(values, dtype=float).reshape(-1).copy()
    if arr.size != q.Q:
        raise DomainError(
            f"potential has {arr.size} values, expected Q={q.Q} for periods {q.q}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("potential values must be finite")
    arr.flags.writeable = False
    return Potential(q, arr)


def zero_potential(q: PeriodVector) -> Potential:
    return potential(q, np.zeros(q.Q))


def random_potential(q: PeriodVector, amplitude: float, seed: int) -> Potential:
    """Uniform random potential rescaled to sup norm exactly `amplitude`."""
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise DomainError(f"amplitude must be finite and nonnegative, got {amplitude}")
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, q.Q)
    peak = np.max(np.abs(vals))
    if amplitude > 0 and peak > 0:
        vals *= amplitude / peak
    else:
        vals[:] = 0.0
    return potential(q, vals)


def parse_potential(payload: dict) -> Potential:
    """Build a potential from the JSON payload {"q": [...], "values": [...]}."""
    if not isinstance(payload, dict) or "q" not in payload or "values" not in payload:
        raise DomainError('potential payload must be an object with "q" and "values"')
    q = period(payload["q"])
    values = payload["values"]
    if len(values) != q.Q:
        raise DomainError(
            f"potential file has {len(values)} values, expected Q={q.Q} for periods {q.q}"
        )
    return potential(q, values)


def load_potential(path: str) -> Potential:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_potential(json.load(fh))


@functools.lru_cache(maxsize=32)
def _hopping_structure(q_tuple: tuple[int, ...]):
    """Interior adjacency and per-direction wrap positions for one cell.

    Returns (interior, wraps) where interior is the real symmetric matrix of
    bonds staying inside the cell and wraps[i] = (rows, cols) lists the
    directed bonds that leave the cell along direction i, from a site to its
    wrapped neighbor.  With W_i the 0/1 matrix of those positions the fiber
    matrix is

        interior + sum_i (p_i * W_i + conj(p_i) * W_i.T) + diag(V)

    with p_i = exp(2 pi i q_i theta_i).  For q_i = 1 the wrap bond starts and
    ends at the same site, so forward and backward contributions accumulate
    on the diagonal; for q_i = 2 they stack on top of the interior bond.
    """
    q = period(q_tuple)
    Q = q.Q
    interior = np.zeros((Q, Q))
    wraps = [np.zeros((Q, Q)) for _ in range(q.d)]
    strides = []
    s = 1
    for qi in reversed(q.q):
        strides.append(s)
        s *= qi
    strides = list(reversed(strides))
    for a in range(Q):
        site = site_from_linear(q, a)
        for i, qi in enumerate(q.q):
            if site.n[i] + 1 < qi:
                b = a + strides[i]
                interior[a, b] += 1.0
                interior[b, a] += 1.0
            else:
                b = a - site.n[i] * strides[i]
                wraps[i][a, b] += 1.0
    return interior, tuple(np.nonzero(w) for w in wraps)


def _fiber_stack(q: PeriodVector, V: Potential, thetas: np.ndarray) -> np.ndarray:
    """Fiber matrices at the rows of the (n, d) phase array, as an (n, Q, Q) stack.

    The phases are scattered into the wrap positions in the order of the
    formula in :func:`_hopping_structure`, so every entry is rounded exactly
    as in the dense sum.
    """
    interior, wraps = _hopping_structure(q.q)
    M = np.empty((thetas.shape[0], q.Q, q.Q), dtype=complex)
    M[:] = interior
    for i, qi in enumerate(q.q):
        p = np.exp(2j * math.pi * qi * thetas[:, i])[:, None]
        rows, cols = wraps[i]
        M[:, rows, cols] += p
        M[:, cols, rows] += np.conj(p)
    diag = np.arange(q.Q)
    M[:, diag, diag] += V.values
    return M


def _eigenvalues_desc(M: np.ndarray, theta) -> np.ndarray:
    """Eigenvalues of a matrix or stack, non-increasing along the last axis; an
    eigensolver failure names the phase of the first matrix that fails alone."""
    try:
        return np.linalg.eigvalsh(M)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        if M.ndim == 3:
            for Mj, tj in zip(M, theta):
                _eigenvalues_desc(Mj, tj)
        raise ComputationError(
            f"eigensolver failed at theta={np.asarray(theta).tolist()}: {exc}"
        ) from exc


def assemble(q: PeriodVector, V: Potential, theta: Phase | Sequence[float] | np.ndarray) -> np.ndarray:
    """Assemble the Q x Q Hermitian fiber matrix at one reduced phase, or a stack.

    Parameters
    ----------
    q : PeriodVector
        Componentwise periods.
    V : Potential
        On-site potential over the cell; must match q.
    theta : Phase, sequence of float, or (n, d) array
        Reduced phase, coordinate i taken modulo 1/q_i; an (n, d) array
        gives n phases, one per row.

    Returns
    -------
    np.ndarray
        The (Q, Q) matrix with interior bonds of weight 1, wrap bonds
        carrying the phase exp(2 pi i q_i theta_i), and V on the diagonal,
        or the (n, Q, Q) stack for an (n, d) array.  Hermiticity is exact
        by construction.
    """
    if V.q != q:
        raise DomainError(f"potential periods {V.q.q} do not match {q.q}")
    stack = isinstance(theta, np.ndarray) and theta.ndim == 2
    th = np.asarray(theta, dtype=float) if stack else np.array([theta_values(theta)])
    if th.shape[1] != q.d:
        raise DomainError(f"phase has {th.shape[1]} coordinates, expected {q.d}")
    M = _fiber_stack(q, V, th)
    return M if stack else M[0]


def eigenvalues_sorted_desc(
    q: PeriodVector, V: Potential, theta: Phase | Sequence[float] | np.ndarray
) -> np.ndarray:
    """Fiber eigenvalues at one phase, sorted non-increasing, as a read-only array.

    An (n, d) phase array gives an (n, Q) array, one row per phase.

    Raises
    ------
    ComputationError
        If the dense Hermitian eigensolver fails to converge; the message
        carries the offending phase.
    """
    M = assemble(q, V, theta)
    out = _eigenvalues_desc(M, theta if M.ndim == 3 else theta_values(theta)).copy()
    out.flags.writeable = False
    return out


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def minimal_period(V: Potential) -> tuple[int, ...]:
    """Componentwise smallest periods dividing q under which V is invariant.

    Exact comparison: shifting by p_i sites along direction i must reproduce
    the stored values bit for bit.
    """
    arr = V.values.reshape(V.q.q)
    result = []
    for axis, qi in enumerate(V.q.q):
        for p in _divisors(qi):
            if np.array_equal(arr, np.roll(arr, p, axis=axis)):
                result.append(p)
                break
    return tuple(result)
