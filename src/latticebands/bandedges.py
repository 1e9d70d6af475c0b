"""Certified band edges, overlaps, and spectrum assembly on phase grids.

Band k (1-based, k = 1 the largest eigenvalue) traces the k-th fiber
eigenvalue over the reduced phase torus.  Sampled extrema are attained
values, so they bound each band from the inside; a Lipschitz argument turns
the grid spacing into an outer enclosure radius (the slack).  Everything
here is deterministic: reductions use a total order on (value, node index),
so results do not depend on evaluation order or worker count.
"""
from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DomainError
from . import floquet
from .floquet import Potential, zero_potential
from .lattice import PeriodVector, Phase

__all__ = [
    "GridSpec",
    "BandTable",
    "Interval",
    "SpectrumReport",
    "CqEstimate",
    "default_grid",
    "lipschitz_constant",
    "certified_slack",
    "sample_bands",
    "certified_edges",
    "iter_band_rows",
    "overlaps",
    "assemble_spectrum",
    "overlap_after_potential",
    "estimate_cq",
    "min_abs_eigenvalue",
    "check_workers",
]


# Refinement runs REFINE_ROUNDS rounds and halves its coordinate steps
# after every round.
REFINE_ROUNDS = 10
SHRINK = 0.5


def _is_int(x) -> bool:
    """True for Python and numpy integers, False for bools and floats."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_budget(budget) -> int:
    if not _is_int(budget) or budget < 1:
        raise ConfigurationError(f"budget must be a positive integer, got {budget!r}")
    return int(budget)


@dataclass(frozen=True)
class GridSpec:
    """Per-direction sample counts over the reduced torus and the node budget."""

    m: tuple[int, ...]
    budget: int = 1 << 16

    def __post_init__(self) -> None:
        vals = tuple(self.m)
        if not all(map(_is_int, vals)):
            raise ConfigurationError(f"sample counts must be integers, got {vals!r}")
        vals = tuple(map(int, vals))
        object.__setattr__(self, "m", vals)
        if any(mi < 2 for mi in vals):
            raise ConfigurationError(f"need at least 2 samples per direction, got {vals}")
        object.__setattr__(self, "budget", _check_budget(self.budget))
        if self.n_nodes > self.budget:
            raise ConfigurationError(
                f"grid has {self.n_nodes} nodes, over the budget of {self.budget}"
            )

    @property
    def n_nodes(self) -> int:
        return math.prod(self.m)

    def steps(self, q: PeriodVector) -> tuple[float, ...]:
        """Grid spacing per direction: coordinate i advances by 1/(q_i m_i)."""
        if len(self.m) != q.d:
            raise ConfigurationError(f"grid has {len(self.m)} directions, expected {q.d}")
        return tuple(1.0 / (qi * mi) for qi, mi in zip(q.q, self.m))


@dataclass(frozen=True, eq=False)
class BandTable:
    """Sampled extrema of every band with their locations and enclosure slack.

    Row k-1 holds band k.  True edges are certified to lie within
    [min_values - slack, max_values + slack]; the sampled values themselves
    are attained, hence inside the true band.
    """

    q: PeriodVector
    grid: GridSpec
    min_values: np.ndarray
    max_values: np.ndarray
    argmin: tuple[Phase, ...]
    argmax: tuple[Phase, ...]
    slack: float
    refined: bool = False

    @property
    def Q(self) -> int:
        return self.q.Q

    def _check(self, k: int) -> int:
        if not 1 <= k <= self.Q:
            raise DomainError(f"band index {k} out of range 1..{self.Q}")
        return k - 1

    def band_min(self, k: int) -> float:
        return float(self.min_values[self._check(k)])

    def band_max(self, k: int) -> float:
        return float(self.max_values[self._check(k)])

    def theta_min(self, k: int) -> Phase:
        return self.argmin[self._check(k)]

    def theta_max(self, k: int) -> Phase:
        return self.argmax[self._check(k)]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise DomainError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Merged band intervals with the overlap table and gap certification."""

    q: PeriodVector
    intervals: tuple[Interval, ...]
    overlaps: tuple[float, ...]
    gaps: tuple[Interval, ...]
    certified: bool
    slack: float
    merge_tol: float
    grid: GridSpec


@dataclass(frozen=True, eq=False)
class CqEstimate:
    """Certified coupling threshold below which no new gap can open.

    For all-even periods the band pair(s) whose overlap segment collapses
    onto 0 are excluded (they touch by symmetry and never contribute), and
    touching_at_zero records that exclusion.
    """

    c_q: float
    touching_at_zero: bool
    inconclusive: bool
    min_overlap: float
    overlaps: tuple[float, ...]
    excluded_pairs: tuple[int, ...]
    slack: float


def lipschitz_constant(q: PeriodVector, axis: int) -> float:
    """Per-coordinate Lipschitz bound 4 pi for every band function and potential.

    Conjugating the fiber matrix H(theta) by the diagonal unitary
    diag(exp(2 pi i n . theta)) over the cell sites n leaves its spectrum
    unchanged and puts the phase exp(2 pi i theta_i) on every bond of
    direction i: that part of H is exp(2 pi i theta_i) S_i + h.c. with S_i a
    cyclic shift, and the potential carries no phase.  So
    ||dH/dtheta_i|| <= 4 pi, and by Weyl's inequality every sorted
    eigenvalue moves by at most 4 pi |dtheta_i|.

    For a real V, H(-theta) = conj H(theta), so every band function is also
    even in theta.  The sweeps solve one node of each mirror pair; its
    values are attained at both nodes and the mirrored grid is the grid
    itself, so the slack from this bound covers the whole torus.
    """
    if not 0 <= axis < q.d:
        raise DomainError(f"axis {axis} out of range for d={q.d}")
    return 4.0 * math.pi


def certified_slack(q: PeriodVector, grid: GridSpec) -> float:
    """Enclosure radius sum_i L_i h_i / 2 = 2 pi sum_i h_i, h_i the grid step."""
    steps = grid.steps(q)
    return sum(lipschitz_constant(q, i) * h / 2.0 for i, h in enumerate(steps))


def default_grid(q: PeriodVector, budget: int = 1 << 16) -> GridSpec:
    """Largest even per-direction sample count that fits the node budget."""
    budget = _check_budget(budget)
    if budget < 2**q.d:
        raise ConfigurationError(f"budget {budget} too small for d={q.d}")
    m = int(budget ** (1.0 / q.d))
    m -= m % 2
    m = max(2, m)
    while m**q.d > budget:
        m = max(2, m - 2)
    return GridSpec((m,) * q.d, budget=budget)


def _chunk_size(Q: int) -> int:
    """Fiber matrices per sweep chunk: a stack of at most 2^18 complex entries
    (4 MiB) for Q <= 90, which bounds the memory a sweep holds per worker.
    Results do not depend on the chunking."""
    return max(32, min(4096, (1 << 18) // (Q * Q)))


def _mirror(nodes: np.ndarray, m: tuple[int, ...]) -> np.ndarray:
    """Row-major index of each node's time-reversed node, j_i -> -j_i mod m_i.

    Node j sits at theta_i = j_i/(q_i m_i), and its mirror at -theta_i
    modulo 1/q_i, where the fiber matrix is the same as at -theta.
    """
    coords = np.unravel_index(nodes, m)
    return np.ravel_multi_index(tuple(-c % mi for c, mi in zip(coords, m)), m)


def _representatives(m: tuple[int, ...]) -> np.ndarray:
    """Grid nodes j with j <= mirror(j), ascending: one per time-reversal pair,
    (N + F)/2 of the N nodes, F = prod(2 if m_i is even else 1) fixed points."""
    nodes = np.arange(math.prod(m))
    return nodes[nodes <= _mirror(nodes, m)]


def _node_phases(q: PeriodVector, grid: GridSpec, nodes: np.ndarray) -> np.ndarray:
    """(n, d) phases of the given grid nodes: theta_i = j_i h_i."""
    steps = grid.steps(q)
    coords = np.unravel_index(nodes, grid.m)
    return np.stack([coords[i] * steps[i] for i in range(q.d)], axis=1)


def _chunk_values(q: PeriodVector, V: Potential, grid: GridSpec, nodes: np.ndarray) -> np.ndarray:
    """Descending eigenvalues at the given grid nodes, (n, Q)."""
    return floquet._fiber_eigenvalues(q, V, _node_phases(q, grid, nodes))


def check_workers(workers: int) -> None:
    """Reject a worker count below 1 with a ConfigurationError."""
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")


def _iter_chunks(q: PeriodVector, V: Potential, grid: GridSpec, workers: int, nodes: np.ndarray):
    """Yield (chunk nodes, eigenvalues) for the given ascending grid nodes,
    in order.  Every sweep passes the time-reversal representatives: for
    real V, H(-theta) = conj H(theta) has the same spectrum, so a node and
    its mirror share the eigenvalues solved at the representative."""
    # Resolve V's minimal cell (cached on V) before the first chunk: worker
    # threads then only read it, and its small arrays are not allocated
    # between chunk stacks, which raised peak RSS by about 2 MB on a
    # sweep of 36-site cells.
    V._cell
    cs = _chunk_size(q.Q)
    chunks = [nodes[s:s + cs] for s in range(0, len(nodes), cs)]
    if workers > 1:
        ex = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [ex.submit(_chunk_values, q, V, grid, c) for c in chunks]
            for c, fut in zip(chunks, futures):
                yield c, fut.result()
        finally:
            # On an error or an early close, drop the chunks not yet started.
            ex.shutdown(cancel_futures=True)
    else:
        for c in chunks:
            yield c, _chunk_values(q, V, grid, c)


def _sweep(q: PeriodVector, V: Potential, grid: GridSpec, workers: int, held: np.ndarray | None = None):
    """One pass over the time-reversal representatives of the grid, reduced
    to (band minima, their nodes, band maxima, their nodes, smallest |E|,
    its node); each node is the smallest row-major one attaining the value.

    The reductions are kept on V per grid (Potential._sweeps), so a later
    sweep of the same V and grid solves nothing.  held, an (reps, Q) array,
    receives every representative's row; it is always solved."""
    if V.q != q:
        raise DomainError(f"potential periods {V.q.q} do not match {q.q}")
    grid.steps(q)  # validates dimension match
    check_workers(workers)
    if held is None and grid.m in V._sweeps:
        return V._sweeps[grid.m]
    Q = q.Q
    min_vals = np.full(Q, np.inf)
    max_vals = np.full(Q, -np.inf)
    min_idx = np.zeros(Q, dtype=int)
    max_idx = np.zeros(Q, dtype=int)
    abs_val, abs_idx = math.inf, 0
    cols = np.arange(Q)
    solved = 0
    for nodes, vals in _iter_chunks(q, V, grid, workers, _representatives(grid.m)):
        if held is not None:
            held[solved:solved + len(nodes)] = vals
            solved += len(nodes)
        loc = vals.argmin(axis=0)
        cand = vals[loc, cols]
        better = cand < min_vals
        min_vals[better] = cand[better]
        min_idx[better] = nodes[loc[better]]
        loc = vals.argmax(axis=0)
        cand = vals[loc, cols]
        better = cand > max_vals
        max_vals[better] = cand[better]
        max_idx[better] = nodes[loc[better]]
        # The first flat index of the smallest |E| lies in the first row
        # attaining it, whatever the column order: a flat argmin is many
        # times faster than a min over each row of Q values.  vals is the
        # column-reversed view of an ascending solve and is not read again:
        # undoing the reversal hands np.abs a contiguous array (twice as
        # fast), and taking it in place allocates no second array of the
        # chunk's eigenvalues (which raised peak RSS by 0.4 MB on 9-site cells).
        a = np.abs(vals[:, ::-1], out=vals[:, ::-1]).ravel()
        j = int(a.argmin())
        if a[j] < abs_val:
            abs_val, abs_idx = float(a[j]), int(nodes[j // Q])
    min_vals.flags.writeable = False
    max_vals.flags.writeable = False
    V._sweeps[grid.m] = (min_vals, min_idx, max_vals, max_idx, abs_val, abs_idx)
    return V._sweeps[grid.m]


def sample_bands(q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1) -> BandTable:
    """Sweep the grid and record per-band extrema.

    Parameters
    ----------
    q, V : periods and potential (V must match q).
    grid : GridSpec
        Node j of direction i sits at j/(q_i m_i), so the nodes tile the
        reduced torus with spacing h_i = 1/(q_i m_i).  For a real V (every
        Potential is real) H(-theta) = conj H(theta), so every band
        function is even in theta: only the (N + F)/2 representatives
        j <= mirror(j) are solved (mirror(j)_i = -j_i mod m_i, F the
        number of self-mirrored nodes), and each value is attained at both
        nodes of its pair.  A V already swept on this grid (by any sweep)
        is not solved again.
    workers : int
        Worker threads for the sweep.  The reduction orders ties by the
        row-major node index, so the result is independent of scheduling.

    Returns
    -------
    BandTable
        Extrema, their phases (lexicographically smallest on ties; the
        smallest node attaining a value is a representative), and the
        Lipschitz slack for this grid.
    """
    min_vals, min_idx, max_vals, max_idx, _, _ = _sweep(q, V, grid, workers)
    phases = tuple(map(Phase, _node_phases(q, grid, np.concatenate([min_idx, max_idx]))))
    return BandTable(
        q=q,
        grid=grid,
        min_values=min_vals,
        max_values=max_vals,
        argmin=phases[:q.Q],
        argmax=phases[q.Q:],
        slack=certified_slack(q, grid),
    )


def certified_edges(q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1) -> BandTable:
    """Grid sweep plus local refinement of every band extremum.

    Refinement is coordinate descent with geometrically shrinking steps.  All
    2Q extrema step together, one batched eigensolve per (round, axis, sign),
    and each accepts only strict improvements of its own band value, so it
    follows the path it would follow alone.  Phases fold back onto the torus
    (band functions are periodic with period 1/q_i per coordinate).  The
    slack is inherited from the grid; refinement only moves sampled extrema
    outward (toward the true edges), never loosens the enclosure.
    """
    table = sample_bands(q, V, grid, workers=workers)
    Q = q.Q
    # Row e < Q holds the minimum of band e + 1, row Q + e its maximum;
    # sense turns both into minimization.
    best = np.concatenate([table.min_values, table.max_values])
    th = np.array([p.theta for p in table.argmin + table.argmax])
    sense = np.repeat([1.0, -1.0], Q)
    bands = np.arange(2 * Q) % Q
    row_key = np.dtype((np.void, th.itemsize * q.d))
    steps = list(grid.steps(q))
    for _ in range(REFINE_ROUNDS):
        for i in range(q.d):
            for sgn in (1.0, -1.0):
                cand = th.copy()
                cand[:, i] = (cand[:, i] + sgn * steps[i]) % (1.0 / q.q[i])
                # Extrema often probe the same phase: solve each distinct
                # row once (rows compared byte for byte) and gather.
                _, first, inv = np.unique(cand.view(row_key).ravel(), return_index=True, return_inverse=True)
                v = floquet.eigenvalues_sorted_desc(q, V, cand[first])[inv, bands]
                better = sense * v < sense * best
                th[better] = cand[better]
                best[better] = v[better]
        steps = [s * SHRINK for s in steps]
    phases = tuple(Phase(row) for row in th)
    best.flags.writeable = False
    return BandTable(
        q=q,
        grid=grid,
        min_values=best[:Q],
        max_values=best[Q:],
        argmin=phases[:Q],
        argmax=phases[Q:],
        slack=table.slack,
        refined=True,
    )


def iter_band_rows(q: PeriodVector, V: Potential, grid: GridSpec) -> Iterator[np.ndarray]:
    """Yield each grid node's descending eigenvalues, a (Q,) row, in
    row-major node order; node j sits at theta_i = j_i h_i.

    Taking the first row solves every time-reversal representative, in one
    pass that also keeps the band reductions on V (see sample_bands), so an
    eigensolver failure comes before any row.  Their rows are held in one
    (reps, Q) array, and a node j > mirror(j) gets the row of its
    representative, so the rows at j and mirror(j) hold the same bits."""
    reps = _representatives(grid.m)
    held = np.empty((len(reps), q.Q))
    _sweep(q, V, grid, 1, held)
    block = _chunk_size(q.Q)
    for start in range(0, grid.n_nodes, block):
        nodes = np.arange(start, min(start + block, grid.n_nodes))
        yield from held[np.searchsorted(reps, np.minimum(nodes, _mirror(nodes, grid.m)))]


def overlaps(table: BandTable) -> tuple[float, ...]:
    """Per-pair overlap: max of band k+1 minus min of band k, k = 1..Q-1."""
    return tuple(
        float(table.max_values[k + 1] - table.min_values[k]) for k in range(table.Q - 1)
    )


def assemble_spectrum(table: BandTable) -> SpectrumReport:
    """Merge band intervals into disjoint spectrum intervals plus gap list.

    Intervals closer than the merge tolerance 2 * slack are merged, the
    smallest sound choice: two sampled intervals that close could belong to
    bands that truly meet.
    """
    slack = table.slack
    tol = 2.0 * slack
    spans = sorted(
        (float(lo), float(hi)) for lo, hi in zip(table.min_values, table.max_values)
    )
    merged: list[list[float]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    intervals = tuple(Interval(lo, hi) for lo, hi in merged)
    gaps = tuple(
        Interval(intervals[i].hi, intervals[i + 1].lo) for i in range(len(intervals) - 1)
    )
    certified = all(g.width > 2.0 * slack for g in gaps)
    return SpectrumReport(
        q=table.q,
        intervals=intervals,
        overlaps=overlaps(table),
        gaps=gaps,
        certified=certified,
        slack=slack,
        merge_tol=tol,
        grid=table.grid,
    )


def overlap_after_potential(delta: float, v_norm: float) -> float:
    """Guaranteed overlap after adding a potential of sup norm v_norm."""
    if v_norm < 0:
        raise DomainError(f"potential norm must be nonnegative, got {v_norm}")
    return delta - 2.0 * v_norm


def estimate_cq(q: PeriodVector, grid: GridSpec, workers: int = 1) -> CqEstimate:
    """Certified coupling threshold from the free band overlaps.

    Computes certified free band edges, takes the per-pair overlaps, and
    returns (min overlap - 2 slack) / 2 clipped at zero.  A potential with
    sup norm below the returned value shrinks every counted overlap by at
    most twice its norm, so those pairs keep overlapping.

    For all-even periods the overlap segment of the middle pair(s) collapses
    onto zero (the bands touch there by symmetry); such pairs are excluded
    and flagged through touching_at_zero.  If the grid is too coarse to
    certify a positive threshold the estimate is marked inconclusive.
    """
    table = certified_edges(q, zero_potential(q), grid, workers=workers)
    deltas = overlaps(table)
    slack = table.slack
    excluded: list[int] = []
    if q.all_even:
        for k in range(1, table.Q):
            near_zero = (
                abs(table.band_min(k)) <= 2.0 * slack
                and abs(table.band_max(k + 1)) <= 2.0 * slack
            )
            if near_zero:
                excluded.append(k)
    kept = [d for k, d in enumerate(deltas, start=1) if k not in excluded]
    touching = bool(excluded)
    if not kept:
        return CqEstimate(
            c_q=math.inf if not deltas else 0.0,
            touching_at_zero=touching,
            inconclusive=bool(deltas),
            min_overlap=math.inf if not deltas else min(deltas),
            overlaps=deltas,
            excluded_pairs=tuple(excluded),
            slack=slack,
        )
    min_overlap = min(kept)
    raw = (min_overlap - 2.0 * slack) / 2.0
    return CqEstimate(
        c_q=max(raw, 0.0),
        touching_at_zero=touching,
        inconclusive=raw <= 0.0,
        min_overlap=min_overlap,
        overlaps=deltas,
        excluded_pairs=tuple(excluded),
        slack=slack,
    )


def min_abs_eigenvalue(
    q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1
) -> tuple[float, Phase]:
    """Smallest |eigenvalue| over the grid with the first node attaining it;
    only the time-reversal representatives are solved, and none for a V
    already swept on this grid (see sample_bands)."""
    *_, best, best_idx = _sweep(q, V, grid, workers)
    return best, Phase(_node_phases(q, grid, np.array([best_idx]))[0])
