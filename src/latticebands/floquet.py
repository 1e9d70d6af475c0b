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
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ComputationError, ConfigurationError, DomainError
from .lattice import (
    PeriodVector,
    Phase,
    check_phases,
    enumerate_lambda,
    is_integer,
    period,
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

    @functools.cached_property
    def _cell(self) -> tuple[PeriodVector, Potential, np.ndarray]:
        """The minimal period cell p = minimal_period(self), the potential
        restricted to it, and the (K, d) offsets l/q with 0 <= l_i < q_i/p_i,
        K = Q/P, in row-major order."""
        p = period(minimal_period(self))
        values = self.values.reshape(self.q.q)[tuple(slice(pi) for pi in p.q)]
        folds = enumerate_lambda(period(qi // pi for qi, pi in zip(self.q.q, p.q)))
        shifts = np.array([l.l for l in folds]) / np.array(self.q.q)
        return p, self if p == self.q else potential(p, values), shifts

    @functools.cached_property
    def _site_fiber(self) -> tuple[np.ndarray, list]:
        """The parts of this cell's fiber in the site basis (see
        _fiber_parts), which assemble stacks; H0 is read-only."""
        return _fiber_parts(self.q, self.values, None)

    @functools.cached_property
    def _fiber(self) -> tuple[np.ndarray, list]:
        """The parts of the minimal-cell fiber that the kernel solves (see
        _fiber_parts): real symmetric in the basis of the first inversion
        centre when that cell has P >= 2 sites and one, else the site-basis
        table of that cell (the same object assemble stacks)."""
        p, Vp, _ = self._cell
        image = _inversion(p, Vp.values) if p.Q >= 2 else None
        return Vp._site_fiber if image is None else _fiber_parts(p, Vp.values, image)

    @functools.cached_property
    def _sweeps(self) -> dict:
        """Reductions of the grid sweeps of this potential, keyed by the grid's
        sample counts m (see bandedges._sweep): the band minima and maxima
        with their phases, O(Q) numbers per grid, so a later sweep of the
        same grid solves nothing."""
        return {}


def _is_real(x) -> bool:
    """True for Python and numpy reals, False for bools: the one rule for
    every real input (potential values, amplitudes)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def potential(q: PeriodVector, values: Sequence[float]) -> Potential:
    """Validate and freeze a potential given as Q reals in row-major order,
    a sequence or array of real numbers (no bools)."""
    items = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    bad = [v for v in items if not _is_real(v)]
    if bad:
        raise DomainError(f'potential "values" must be numbers, got {bad[0]!r}')
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
    """Uniform random potential rescaled to sup norm exactly `amplitude`.

    The seed must be a nonnegative integer."""
    if not (_is_real(amplitude) and math.isfinite(amplitude) and amplitude >= 0):
        raise DomainError(f"amplitude must be finite and nonnegative, got {amplitude!r}")
    if not is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
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
    q, values = payload["q"], payload["values"]
    if not isinstance(q, (list, tuple)):
        raise DomainError(f'potential "q" must be a list of periods, got {q!r}')
    q = period(q)
    if not isinstance(values, (list, tuple)):
        raise DomainError(f'potential "values" must be a list of {q.Q} numbers, got {values!r}')
    return potential(q, values)


def load_potential(path: str) -> Potential:
    """Read a potential file (see parse_potential).

    Raises ConfigurationError if the file cannot be read and DomainError if
    it is not JSON or not a valid potential."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read potential file {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DomainError(f"potential file {path!r} is not valid JSON: {exc}") from None
    return parse_potential(payload)


def _inversion(p: PeriodVector, values: np.ndarray) -> np.ndarray | None:
    """The site map n -> c - n mod p of the first inversion centre c of the
    cell (row-major), as linear indices, or None if it has none.

    A centre is a site c with V(c - n mod p) == V(n) for every n, compared
    exactly as minimal_period compares; n = 0 gives V(c) == V(0), so only
    those sites are tried."""
    flipped = np.flip(np.arange(p.Q).reshape(p.q))  # site n holds p - 1 - n
    for c in np.flatnonzero(values == values[0]):
        shift = tuple(int(ci) + 1 for ci in np.unravel_index(c, p.q))
        image = np.roll(flipped, shift, axis=tuple(range(p.d))).ravel()
        if np.array_equal(values[image], values):
            return image
    return None


# The functions of a phase coordinate x that the parts of a fiber carry.
_EXP, _COS, _SIN = (
    lambda x: np.exp(2j * math.pi * x),
    lambda x: np.cos(2 * math.pi * x),
    lambda x: np.sin(2 * math.pi * x),
)


@functools.lru_cache(maxsize=32)
def _shift_positions(q_tuple: tuple[int, ...]) -> tuple:
    """Per direction, the flat positions a * P + b of the ones S_i[a, b] of
    the cyclic shift n -> n + b_i of the cell, and those of S_i^T."""
    P = math.prod(q_tuple)
    idx = np.arange(P).reshape(q_tuple)
    shifts = [idx.ravel() * P + np.roll(idx, -1, axis=i).ravel() for i in range(len(q_tuple))]
    return tuple((tuple(s.tolist()), tuple((s % P * P + s // P).tolist())) for s in shifts)


def _fiber_parts(p: PeriodVector, values: np.ndarray, image: np.ndarray | None) -> tuple[np.ndarray, list]:
    """The fiber of the cell p in the uniform gauge, as constant parts.

    At phase kappa the fiber is H(kappa) = diag(V) + sum_i (exp(2 pi i
    kappa_i) S_i + h.c.), S_i the cyclic shift n -> n + b_i of the cell.
    Conjugating by diag(exp(2 pi i n . kappa)) moves the phases onto the
    bonds that leave the cell as exp(2 pi i p_i kappa_i), so the two gauges
    have one spectrum.  Returns (H0 flat, parts): parts[i] is a tuple of
    (f, groups), groups a tuple of (weight, flat positions), and H(kappa)
    is H0 plus weight * f(kappa_i) at each position of each group (f
    np.conj conjugates the previous term's values).  H0 is read-only.

    With image None, in the site basis: H0 = diag(V), exp(2 pi i x) at the
    positions of S_i and its conjugate at those of S_i^T.  With image an
    inversion J: n -> c - n of V (see _inversion), J S_i J = S_i^T, so J
    composed with complex conjugation commutes with H and squares to 1.
    The vectors it fixes, e_f for each fixed site f and (e_a + e_b)/sqrt 2,
    i (e_a - e_b)/sqrt 2 for each swapped pair a < b, form an orthonormal
    basis in which H is the real symmetric matrix

        R(kappa) = R0 + sum_i (cos(2 pi kappa_i) C_i + sin(2 pi kappa_i) D_i),

    C_i the form of S_i + S_i^T and D_i that of i (S_i - S_i^T).
    """
    P = p.Q
    if image is None:
        parts = [((_EXP, ((1.0, s),)), (np.conj, ((1.0, t),))) for s, t in _shift_positions(p.q)]
        return _frozen(np.diag(values).astype(complex).ravel()), parts
    U = np.zeros((P, P), dtype=complex)  # basis vectors times sqrt 2 on pairs
    sites, norms = [], []
    for a, b in enumerate(image):
        if a == b:
            U[a, len(sites)] = 1
            sites.append(a)
            norms.append(1)
        elif a < b:
            r = len(sites)
            U[[a, b], r] = 1, 1
            U[[a, b], r + 1] = 1j, -1j
            sites += [a, a]
            norms += [2, 2]
    # Entries of U^H A U are sums of small integers, so exact; one division
    # by sqrt(norm_r norm_c) in {1, sqrt 2, 2} rounds each weight once.
    scale = np.sqrt(np.outer(norms, norms))
    parts = []
    for s, _ in _shift_positions(p.q):
        S = np.bincount(s, minlength=P * P).reshape(P, P)
        terms = []
        for f, A in ((_COS, S + S.T), (_SIN, 1j * (S - S.T))):
            R = ((U.conj().T @ A @ U).real / scale).ravel()
            # (sorted(set()) rather than np.unique, whose first call costs
            # about 14 ms of a cold start)
            weights = sorted(set(R[R != 0].tolist()))
            if weights:
                terms.append((f, tuple((w, np.flatnonzero(R == w).tolist()) for w in weights)))
        parts.append(tuple(terms))
    return _frozen(np.diag(values[sites]).ravel()), parts


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stack(fiber: tuple[np.ndarray, list], n: int, tables, index: np.ndarray | None = None) -> np.ndarray:
    """The fibers of a parts table (see _fiber_parts) at n phases, an
    (n, P, P) stack of H0's dtype.

    Coordinate i of the phases is f(tables[i]) for each function f: with
    index, the rows index[:, i] of it, raveled (see _fiber_eigenvalues).
    A term with f np.conj takes the conjugate of the previous term's values
    instead.  The stack is built flat, (n, P*P): each group's multiple of f
    is added to one column view per position, in the order of the table,
    so every entry is rounded as in the dense sum."""
    H0, parts = fiber
    M = np.empty((n, H0.size), dtype=H0.dtype)
    M[:] = H0
    for i, terms in enumerate(parts):
        for f, groups in terms:
            if f is np.conj:
                t = f(t)
            else:
                t = f(tables[i])
                t = (t if index is None else t[index[:, i]]).ravel()
            for w, positions in groups:
                wt = t if w == 1 else w * t
                for k in positions:
                    M[:, k] += wt
    P = math.isqrt(H0.size)
    return M.reshape(n, P, P)


def _eigenvalues_desc(M: np.ndarray, axes, index: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of a stack of fibers, non-increasing along the last axis.

    The phases are given as to _fiber_eigenvalues, one per run of len(M) //
    n consecutive matrices; they are built only when the solve fails, and
    the error names the phase of the first matrix that fails alone (all of
    them if none does)."""
    try:
        return np.linalg.eigvalsh(M)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        theta = np.stack([a if index is None else a[index[:, i]] for i, a in enumerate(axes)], axis=1)
        for Mj, tj in zip(M, np.repeat(theta, len(M) // len(theta), axis=0)):
            try:
                np.linalg.eigvalsh(Mj)
            except np.linalg.LinAlgError as alone:
                theta, exc = tj, alone
                break
        raise ComputationError(f"eigensolver failed at theta={theta.tolist()}: {exc}") from exc


def _fiber_eigenvalues(q: PeriodVector, V: Potential, axes, index: np.ndarray | None = None) -> np.ndarray:
    """Descending fiber eigenvalues at n phases, (n, Q).

    Row r has coordinate i equal to axes[i][r], or axes[i][index[r, i]]
    when an (n, d) integer index is given: the sweep passes the per-axis
    grid values j * h_i and the grid coordinates of its nodes, and
    eigenvalues_sorted_desc the columns of its phase array.

    Solved on the minimal period cell p of V (Floquet-Bloch folding):

        spec H_q(theta) = union over l of spec H_p(theta + l/q),
        0 <= l_i < q_i / p_i,

    so the n fibers of size Q become n K fibers of size P = Q/K at kappa =
    theta + l/q, built by _stack from V._fiber and merged per phase.  When
    p = q, kappa = theta + 0 and the merge only re-sorts sorted rows.
    Coordinate i of kappa is one table, axes[i][:, None] + l_i/q_i, which
    each function of V._fiber is taken of and then gathered from, so every
    value keeps its bits whichever form the phases come in.  Without an
    index a complex stack is made by the public assemble, so a wrapper of
    it sees every complex probe stack (from V._fiber itself, the minimal
    cell's site table); the threaded sweep passes an index and calls no
    public name from a worker thread.
    """
    p, Vp, shifts = V._cell
    fiber = V._fiber
    n = len(axes[0]) if index is None else len(index)
    tables = [a[:, None] + s for a, s in zip(axes, shifts.T)]
    if index is None and np.iscomplexobj(fiber[0]):
        M = assemble(p, Vp, np.stack([t.ravel() for t in tables], axis=1))
    else:
        M = _stack(fiber, n * len(shifts), tables, index)
    vals = _eigenvalues_desc(M, axes, index).reshape(n, q.Q)
    return np.sort(vals, axis=1)[:, ::-1]


def check_periods(q: PeriodVector, V: Potential) -> None:
    """The one check that V is a potential for the periods q."""
    if V.q != q:
        raise DomainError(f"potential periods {V.q.q} do not match {q.q}")


def assemble(q: PeriodVector, V: Potential, theta: Phase | Sequence[float] | np.ndarray) -> np.ndarray:
    """Assemble the Q x Q Hermitian fiber matrix at one reduced phase, or a stack.

    Parameters
    ----------
    q : PeriodVector
        Componentwise periods.
    V : Potential
        On-site potential over the cell; must match q.
    theta : Phase, sequence of float, or (n, d) array-like
        Reduced phase, coordinate i taken modulo 1/q_i; an (n, d) array or
        a nested list of n d-vectors gives n phases, one per row.

    Returns
    -------
    np.ndarray
        The (Q, Q) matrix in the uniform gauge: every bond of direction i
        carries the phase exp(2 pi i theta_i) (a q_i = 1 bond closes on its
        site and adds 2 cos(2 pi theta_i) to the diagonal), and V is on the
        diagonal; or the (n, Q, Q) stack for n phases.  Hermiticity is
        exact by construction.  It is a new array, stacked from the
        site-basis parts kept on V with one exponential per direction and
        its conjugate on the reverse bonds.

    Raises
    ------
    DomainError
        If V does not match q, or a phase has the wrong number of
        coordinates or a non-finite one.
    """
    check_periods(q, V)
    th, single = check_phases(q, theta)
    M = _stack(V._site_fiber, len(th), th.T)
    return M[0] if single else M


def eigenvalues_sorted_desc(
    q: PeriodVector, V: Potential, theta: Phase | Sequence[float] | np.ndarray
) -> np.ndarray:
    """Fiber eigenvalues at one phase, sorted non-increasing, as a read-only array.

    n phases (an (n, d) array or nested list) give an (n, Q) array, one row
    per phase.  The fibers are solved on the minimal period cell of V, as
    real symmetric matrices when it has P >= 2 sites and an inversion centre
    (the dimer and vq), and merged (see _fiber_eigenvalues), so the values
    agree with eigvalsh(assemble(q, V, theta)) to rounding; when the
    minimal period is q and there is no centre, they are that solve exactly.

    Raises
    ------
    DomainError
        On the same inputs as assemble.
    ComputationError
        If the dense Hermitian eigensolver fails to converge; the message
        carries the offending phase theta.
    """
    check_periods(q, V)
    th, single = check_phases(q, theta)
    out = _fiber_eigenvalues(q, V, th.T).copy()
    out.flags.writeable = False
    return out[0] if single else out


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
