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
    site_from_linear,
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
        return p, potential(p, values), shifts

    @functools.cached_property
    def _real_fiber(self) -> tuple[np.ndarray, list] | None:
        """The real symmetric form of the minimal-cell fiber (see _real_parts),
        or None when that cell has one site or no inversion centre."""
        p, Vp, _ = self._cell
        return _real_parts(p, Vp.values)

    @functools.cached_property
    def _sweeps(self) -> dict:
        """Reductions of the grid sweeps of this potential, keyed by the grid's
        sample counts m (see bandedges._sweep): O(Q) numbers per grid, so a
        later sweep of the same grid solves nothing."""
        return {}


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
    """Uniform random potential rescaled to sup norm exactly `amplitude`.

    The seed must be a nonnegative integer."""
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise DomainError(f"amplitude must be finite and nonnegative, got {amplitude}")
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
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, numbers.Real)]
    if bad:
        raise DomainError(f'potential "values" must be numbers, got {bad[0]!r}')
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


@functools.lru_cache(maxsize=32)
def _hopping_structure(q_tuple: tuple[int, ...]):
    """Interior adjacency and per-direction wrap positions for one cell.

    Returns (interior, wraps): interior is the real symmetric matrix of
    bonds staying inside the cell, flattened row-major to Q*Q entries, and
    wraps[i] = (forward, backward) lists the flat positions a*Q + b and
    b*Q + a of the directed bonds that leave the cell along direction i,
    from a site a to its wrapped neighbor b.  With W_i the 0/1 matrix of
    the forward positions the fiber matrix is

        interior + sum_i (p_i * W_i + conj(p_i) * W_i.T) + diag(V)

    with p_i = exp(2 pi i q_i theta_i).  For q_i = 1 the wrap bond starts and
    ends at the same site, so forward and backward contributions accumulate
    on the diagonal; for q_i = 2 they stack on top of the interior bond.
    """
    q = period(q_tuple)
    Q = q.Q
    interior = np.zeros((Q, Q))
    wraps = [([], []) for _ in range(q.d)]
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
                wraps[i][0].append(a * Q + b)
                wraps[i][1].append(b * Q + a)
    return interior.ravel(), wraps


def _columns(kappa: np.ndarray):
    """The gather of the builders for an (n, d) phase array: gather(f, i) is
    f of its column i."""
    return lambda f, i: f(kappa[:, i])


def _fiber_stack(q: PeriodVector, V: Potential, n: int, gather) -> np.ndarray:
    """Wrap-gauge fiber matrices at n phases, as an (n, Q, Q) complex stack.

    gather(f, i) returns f of coordinate i of the n phases (see
    _fiber_eigenvalues); it is called once per direction, for the phase
    factors exp(2 pi i q_i theta_i).  The stack is built flat, (n, Q*Q), and
    each phase is added to one column view per wrap position in the order
    of the formula in :func:`_hopping_structure`, so every entry is rounded
    exactly as in the dense sum.
    """
    interior, wraps = _hopping_structure(q.q)
    Q = q.Q
    M = np.empty((n, Q * Q), dtype=complex)
    M[:] = interior
    for i, (forward, backward) in enumerate(wraps):
        p = gather(lambda x: np.exp(2j * math.pi * q.q[i] * x), i)
        for k in forward:
            M[:, k] += p
        p = np.conj(p)
        for k in backward:
            M[:, k] += p
    M[:, ::Q + 1] += V.values
    return M.reshape(n, Q, Q)


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


def _real_parts(p: PeriodVector, values: np.ndarray) -> tuple[np.ndarray, list] | None:
    """Constant parts of the real symmetric fiber of an inversion-symmetric
    cell of P >= 2 sites, or None.

    In the uniform gauge the fiber is H(kappa) = sum_i (exp(2 pi i kappa_i)
    S_i + h.c.) + diag(V), S_i the cyclic shift n -> n + b_i of the cell.
    With J the inversion n -> c - n, J S_i J = S_i^T and J diag(V) J = diag(V),
    so J composed with complex conjugation commutes with H and squares to 1.
    The vectors it fixes, e_f for each fixed site f and (e_a + e_b)/sqrt 2,
    i (e_a - e_b)/sqrt 2 for each swapped pair a < b, form an orthonormal
    basis in which H is the real symmetric matrix

        R(kappa) = R0 + sum_i (cos(2 pi kappa_i) C_i + sin(2 pi kappa_i) D_i),

    C_i the form of S_i + S_i^T and D_i that of i (S_i - S_i^T).  H is
    unitarily equivalent to the wrap-gauge fiber at the same kappa, so R has
    its eigenvalues.  Returns (R0 flat, parts): parts[i] = (C_i terms, D_i
    terms), each a tuple of (weight, flat positions holding it).
    """
    image = _inversion(p, values) if p.Q >= 2 else None
    if image is None:
        return None
    P = p.Q
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
    idx = np.arange(P).reshape(p.q)
    parts = []
    for i in range(p.d):
        S = np.zeros((P, P))
        S[idx.ravel(), np.roll(idx, -1, axis=i).ravel()] = 1.0
        terms = []
        for A in (S + S.T, 1j * (S - S.T)):
            R = ((U.conj().T @ A @ U).real / scale).ravel()
            # (sorted(set()) rather than np.unique, whose first call costs
            # about 14 ms of a cold start)
            weights = sorted(set(R[R != 0].tolist()))
            terms.append(tuple((w, np.flatnonzero(R == w)) for w in weights))
        parts.append(tuple(terms))
    return np.diag(values[sites]).ravel(), parts


def _real_stack(fiber: tuple[np.ndarray, list], n: int, gather) -> np.ndarray:
    """The real fibers R(kappa) of _real_parts at n phases, an (n, P, P) stack.

    gather as for _fiber_stack, called for cos and sin of each direction
    that has such terms; every weight's multiple is added to one column view
    per position holding it, in a fixed order."""
    R0, parts = fiber
    M = np.empty((n, R0.size))
    M[:] = R0
    for i, terms in enumerate(parts):
        for f, groups in zip((np.cos, np.sin), terms):
            if groups:
                t = gather(lambda x: f(2 * math.pi * x), i)
                for w, positions in groups:
                    wt = w * t
                    for k in positions:
                        M[:, k] += wt
    P = math.isqrt(R0.size)
    return M.reshape(n, P, P)


def _eigenvalues_desc(M: np.ndarray, theta) -> np.ndarray:
    """Eigenvalues of a matrix or stack, non-increasing along the last axis; an
    eigensolver failure names the phase of the first matrix that fails alone.

    For a stack, theta holds one phase per run of len(M) // len(theta)
    consecutive matrices."""
    try:
        return np.linalg.eigvalsh(M)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        if M.ndim == 3:
            for Mj, tj in zip(M, np.repeat(theta, len(M) // len(theta), axis=0)):
                _eigenvalues_desc(Mj, tj)
        raise ComputationError(
            f"eigensolver failed at theta={np.asarray(theta).tolist()}: {exc}"
        ) from exc


def _fiber_eigenvalues(q: PeriodVector, V: Potential, thetas: np.ndarray, grid=None) -> np.ndarray:
    """Descending fiber eigenvalues at the rows of the (n, d) phase array, (n, Q).

    Solved on the minimal period cell p of V (Floquet-Bloch folding):

        spec H_q(theta) = union over l of spec H_p(theta + l/q),
        0 <= l_i < q_i / p_i,

    so the n fibers of size Q become n K fibers of size P = Q/K, whose
    values are merged per phase.  When p has P >= 2 sites and an inversion
    centre (V._real_fiber), each fiber is the real symmetric matrix of
    _real_parts; otherwise it is the complex wrap-gauge matrix, and when
    p = q (K = 1) kappa = theta + 0 and the merge only re-sorts rows the
    eigensolver returned sorted, so the values equal those of the plain
    stack solve.  Only this module knows the gauge: each builder asks for
    its functions of each coordinate of kappa (phase factors, or cos and
    sin) one direction at a time.

    grid, from the sweep, is (steps, coords): the rows are grid nodes, row r
    at theta_i = coords[i][r] * steps[i].  On a grid, coordinate i of kappa
    takes at most m_i K values, so each function is taken once per entry of
    a table of them, built with the phase path's expressions (j * h_i, then
    + l_i/q_i), and gathered: every value keeps its bits.  Without a grid a
    complex stack is made by the public assemble, so a wrapper of assemble
    sees every complex probe stack; the threaded sweep passes a grid and
    calls no public name from a worker thread.
    """
    p, Vp, shifts = V._cell
    fiber = V._real_fiber
    n = len(thetas) * len(shifts)
    if grid is None:
        kappa = (thetas[:, None, :] + shifts).reshape(-1, q.d)
        gather = _columns(kappa)
    else:
        steps, coords = grid

        def gather(f, i):
            table = (np.arange(coords[i].max() + 1) * steps[i])[:, None] + shifts[:, i]
            return f(table)[coords[i]].ravel()

    if fiber is not None:
        M = _real_stack(fiber, n, gather)
    elif grid is None:
        M = assemble(p, Vp, kappa)
    else:
        M = _fiber_stack(p, Vp, n, gather)
    vals = _eigenvalues_desc(M, thetas).reshape(len(thetas), q.Q)
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
        The (Q, Q) matrix with interior bonds of weight 1, wrap bonds
        carrying the phase exp(2 pi i q_i theta_i), and V on the diagonal,
        or the (n, Q, Q) stack for n phases.  Hermiticity is exact by
        construction.

    Raises
    ------
    DomainError
        If V does not match q, or a phase has the wrong number of
        coordinates or a non-finite one.
    """
    check_periods(q, V)
    th, single = check_phases(q, theta)
    M = _fiber_stack(q, V, len(th), _columns(th))
    return M[0] if single else M


def eigenvalues_sorted_desc(
    q: PeriodVector, V: Potential, theta: Phase | Sequence[float] | np.ndarray
) -> np.ndarray:
    """Fiber eigenvalues at one phase, sorted non-increasing, as a read-only array.

    n phases (an (n, d) array or nested list) give an (n, Q) array, one row
    per phase.  The fibers are solved on the minimal period cell of V and
    merged (see _fiber_eigenvalues), so for a V with a smaller period than
    q (the zero potential has period 1 in every direction) the values agree
    with eigvalsh(assemble(q, V, theta)) to rounding, not bit for bit.  So
    do they when that cell has at least two sites and an inversion centre
    c, V(c - n) == V(n) (the staggered dimer and the gap-opening vq): its
    fibers are solved as real symmetric matrices in a basis of their own,
    and no assemble call is made.  Otherwise, when the minimal period is q,
    they are that solve exactly.

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
    out = _fiber_eigenvalues(q, V, th).copy()
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
