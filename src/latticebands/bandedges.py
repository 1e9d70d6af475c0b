"""Certified band edges, overlaps, and spectrum assembly on phase grids.

Band k (1-based, k = 1 the largest eigenvalue) traces the k-th fiber
eigenvalue over the reduced phase torus.  Sampled extrema are attained
values, so they bound each band from the inside; a Lipschitz argument turns
the grid spacing into an outer enclosure radius (the slack); BandTable
holds both ranges.  Reductions use a total order on (value, node index),
so results do not depend on evaluation order or worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DomainError
from . import floquet
from .floquet import Potential, zero_potential
from .lattice import PeriodVector, is_integer

__all__ = [
    "GridSpec",
    "BandTable",
    "Interval",
    "SpectrumReport",
    "CqEstimate",
    "default_grid",
    "LIPSCHITZ",
    "certified_slack",
    "rounding_bound",
    "sample_bands",
    "certified_edges",
    "iter_band_rows",
    "assemble_spectrum",
    "estimate_cq",
    "min_abs_eigenvalue",
    "gap_at_zero",
    "check_workers",
]


# Refinement runs REFINE_ROUNDS rounds and halves its coordinate steps
# after every round.
REFINE_ROUNDS = 10
SHRINK = 0.5

# Per-coordinate Lipschitz bound of every band function, for every potential.
# The fiber H(theta) is built in the uniform gauge (floquet._fiber_parts):
# every bond of direction i carries the phase exp(2 pi i theta_i), so that
# part of H is exp(2 pi i theta_i) S_i + h.c. with S_i a cyclic shift, and
# the potential carries no phase.  So
# ||dH/dtheta_i|| <= 4 pi, and by Weyl's inequality every sorted eigenvalue
# moves by at most 4 pi |dtheta_i|.
#
# For a real V, H(-theta) = conj H(theta), so every band function is also
# even in theta.  The sweeps solve one node of each mirror pair; its values
# are attained at both nodes and the mirrored grid is the grid itself, so
# the slack from this bound covers the whole torus.
LIPSCHITZ = 4.0 * math.pi

# Rounding: a computed eigenvalue lies within p(n) eps ||H|| of a true one
# (LAPACK Users' Guide, section 4.7.1), ||H|| <= 2d + ||V||_inf, and the
# rounding of phases and entries adds below 8 eps ||H||.  With p(Q) = Q,
# rounding_bound is (Q + 8) eps (2d + ||V||_inf); see README.md.
EPS = 2.0**-52


def _check_budget(budget) -> int:
    if not is_integer(budget) or budget < 1:
        raise ConfigurationError(f"budget must be a positive integer, got {budget!r}")
    return int(budget)


@dataclass(frozen=True)
class GridSpec:
    """Per-direction sample counts over the reduced torus and the node budget."""

    m: tuple[int, ...]
    budget: int = 1 << 16

    def __post_init__(self) -> None:
        vals = tuple(self.m)
        if not all(map(is_integer, vals)):
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
    """Sampled extrema of every band with their locations, and the enclosure.

    Row k-1 holds band k.  The inner range [min + rounding, max - rounding]
    lies inside the true band (sampled values are attained up to rounding);
    the outer range [min - widening, max + widening] holds it.  Every
    verdict is a sampled reading corrected by headroom; this class is the
    one place that does arithmetic on slack and rounding.
    """

    q: PeriodVector
    min_values: np.ndarray
    max_values: np.ndarray
    argmin: tuple[tuple[float, ...], ...]
    argmax: tuple[tuple[float, ...], ...]
    slack: float
    rounding: float
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

    def theta_min(self, k: int) -> tuple[float, ...]:
        return self.argmin[self._check(k)]

    def theta_max(self, k: int) -> tuple[float, ...]:
        return self.argmax[self._check(k)]

    @property
    def widening(self) -> float:
        """How far each outer range end lies outside its sampled end."""
        return self.slack + self.rounding

    @property
    def merge_tol(self) -> float:
        """Two sampled ends closer than this have outer ranges that meet."""
        return 2.0 * self.widening

    def headroom(self, reading: float, outer: int = 0, inner: int = 0) -> float:
        """The enclosure rule: a sampled reading less the widening of each of
        its `outer` outer range ends and the rounding of each of its `inner`
        inner range ends.  A positive result certifies it for the true bands."""
        return reading - outer * self.widening - inner * self.rounding

    @property
    def overlaps(self) -> tuple[float, ...]:
        """Sampled overlap of each adjacent pair: max of band k+1 minus min
        of band k, k = 1..Q-1."""
        return tuple(
            float(self.max_values[k + 1] - self.min_values[k]) for k in range(self.Q - 1)
        )

    def deepest(self, E: float) -> tuple[int, float, tuple[float, ...]]:
        """(k, depth, phase) of the band holding E deepest, the one rule for
        where E sits: band k has depth min(max_k - E, E - min_k), the first
        of largest depth wins, and the phase is that of its nearer edge (the
        maximum's when max_k - E <= E - min_k).  A positive depth puts E
        strictly inside band k's sampled range; otherwise -depth is E's
        distance to the sampled bands."""
        up = self.max_values - E
        down = E - self.min_values
        k = int(np.argmax(np.minimum(up, down)))
        theta = self.argmax[k] if up[k] <= down[k] else self.argmin[k]
        return k + 1, float(min(up[k], down[k])), theta


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


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Merged band intervals and gaps, and whether every gap is certified;
    the slack, merge tolerance and overlaps are those of the BandTable."""

    intervals: tuple[Interval, ...]
    gaps: tuple[Interval, ...]
    certified: bool


@dataclass(frozen=True, eq=False)
class CqEstimate:
    """Certified coupling threshold below which no new gap can open.

    For all-even periods pair Q/2 is excluded: bands Q/2 and Q/2 + 1 of
    the free operator meet only at 0, by chiral symmetry, so its true
    overlap is exactly 0.  touching_at_zero records that exclusion.
    """

    c_q: float
    touching_at_zero: bool
    inconclusive: bool
    min_overlap: float
    overlaps: tuple[float, ...]
    excluded_pairs: tuple[int, ...]
    slack: float


def certified_slack(q: PeriodVector, grid: GridSpec) -> float:
    """Enclosure radius sum_i LIPSCHITZ h_i / 2 = 2 pi sum_i h_i, h_i the grid step."""
    return sum(LIPSCHITZ * h / 2.0 for h in grid.steps(q))


def rounding_bound(q: PeriodVector, V: Potential) -> float:
    """(Q + 8) eps (2d + ||V||_inf), eps = 2^-52: how far a computed fiber
    eigenvalue can lie from the true one at its phase (see EPS)."""
    return (q.Q + 8) * EPS * (2 * q.d + V.sup_norm)


def default_grid(q: PeriodVector, budget: int = 1 << 16) -> GridSpec:
    """The largest even per-direction sample count m with m^d <= budget."""
    budget = _check_budget(budget)
    if budget < 2**q.d:
        raise ConfigurationError(f"budget {budget} too small for d={q.d}")
    # Integer bisection on m = 2k, keeping (2 lo)^d <= budget < (2 hi)^d:
    # a float root can land just below an exact one.
    lo, hi = 1, budget
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (2 * mid) ** q.d <= budget:
            lo = mid
        else:
            hi = mid
    return GridSpec((2 * lo,) * q.d, budget=budget)


def _chunk_size(Q: int) -> int:
    """Fiber matrices per sweep chunk: a stack of at most 2^18 entries for
    Q <= 90 (4 MiB complex; 2 MiB real, on an inversion-symmetric cell),
    which bounds the memory a sweep holds per worker.  Results do not
    depend on the chunking."""
    return max(32, min(4096, (1 << 18) // (Q * Q)))


def _layout(m: tuple[int, ...], owner: bool = False):
    """The time-reversal layout of a grid of sample counts m.

    Node j (row-major) sits at theta_i = j_i h_i and its mirror, with
    coordinates -j_i mod m_i, at -theta modulo 1/q_i, where the fiber is
    the conjugate one.  Returns the (R, d) grid coordinates of the
    representatives j <= mirror(j) in ascending row-major order, one per
    pair: R = (N + F)/2 of the N nodes, F = prod(2 if m_i is even else 1)
    self-mirrored nodes.  They are held through a sweep, so they take the
    smallest unsigned type that holds m_i - 1.  With owner, also the (N,)
    row-major array of the position in that list of min(j, mirror(j)) for
    every node j."""
    nodes = np.arange(math.prod(m)).reshape(m)
    strides = [math.prod(m[i + 1:]) for i in range(len(m))]
    mirror = sum(np.ix_(*[-np.arange(mi) % mi * s for mi, s in zip(m, strides)]))
    keep = nodes <= mirror
    coords = np.argwhere(keep).astype(np.min_scalar_type(max(m) - 1))
    if not owner:
        return coords
    return coords, (np.cumsum(keep) - 1)[np.minimum(nodes, mirror)].ravel()


def check_workers(workers: int) -> None:
    """Reject a worker count that is not an integer, or is below 1, with a
    ConfigurationError."""
    if not is_integer(workers):
        raise ConfigurationError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")


def _iter_chunks(q: PeriodVector, V: Potential, grid: GridSpec, workers: int, coords: np.ndarray):
    """Yield the descending eigenvalues, (n, Q), of each chunk of the (R, d)
    grid coordinates, in order: the kernel takes the per-axis grid values
    j * h_i and the chunk.  Every sweep passes the representatives of
    _layout: for real V, H(-theta) = conj H(theta) has the same spectrum,
    so a node and its mirror share the eigenvalues solved at one of them."""
    # Resolve V's minimal cell and fiber parts (cached on V) before the
    # first chunk: worker threads then only read them, and their small
    # arrays are not allocated between chunk stacks, which raised peak RSS
    # by about 2 MB on a sweep of 36-site cells.
    V._fiber
    axes = [np.arange(mi) * h for mi, h in zip(grid.m, grid.steps(q))]
    cs = _chunk_size(q.Q)
    chunks = [coords[s:s + cs] for s in range(0, len(coords), cs)]
    if workers > 1:
        ex = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [ex.submit(floquet._fiber_eigenvalues, q, V, axes, c) for c in chunks]
            for fut in futures:
                yield fut.result()
        finally:
            # On an error or an early close, drop the chunks not yet started.
            ex.shutdown(cancel_futures=True)
    else:
        for c in chunks:
            yield floquet._fiber_eigenvalues(q, V, axes, c)


def _sweep(q: PeriodVector, V: Potential, grid: GridSpec, workers: int, rows: tuple | None = None) -> BandTable:
    """One pass over the time-reversal representatives of the grid, reduced
    to its BandTable; each phase is that of the smallest row-major node
    attaining the value, found as a position in the list of representatives.

    The table is kept on V by sample counts (Potential._sweeps), so a later
    sweep of the same V and m solves nothing.  rows, from the row pass, is
    the layout's coordinates and an (R, Q) array that receives every
    representative's row; it is always solved."""
    floquet.check_periods(q, V)
    steps = grid.steps(q)  # validates dimension match
    check_workers(workers)
    if rows is None and grid.m in V._sweeps:
        return V._sweeps[grid.m]
    coords, held = (_layout(grid.m), None) if rows is None else rows
    Q = q.Q
    min_vals = np.full(Q, np.inf)
    max_vals = np.full(Q, -np.inf)
    min_pos = np.zeros(Q, dtype=int)
    max_pos = np.zeros(Q, dtype=int)
    cols = np.arange(Q)
    start = 0
    for vals in _iter_chunks(q, V, grid, workers, coords):
        if held is not None:
            held[start:start + len(vals)] = vals
        loc = vals.argmin(axis=0)
        cand = vals[loc, cols]
        better = cand < min_vals
        min_vals[better] = cand[better]
        min_pos[better] = start + loc[better]
        loc = vals.argmax(axis=0)
        cand = vals[loc, cols]
        better = cand > max_vals
        max_vals[better] = cand[better]
        max_pos[better] = start + loc[better]
        start += len(vals)
    min_vals.flags.writeable = False
    max_vals.flags.writeable = False
    # theta_i = j_i h_i, the bits of the kernel's grid values
    phases = tuple(map(tuple, (coords[np.concatenate([min_pos, max_pos])] * steps).tolist()))
    table = BandTable(q, min_vals, max_vals, phases[:Q], phases[Q:],
                      certified_slack(q, grid), rounding_bound(q, V))
    V._sweeps[grid.m] = table
    return table


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
        nodes of its pair.  A V already swept on these sample counts (by
        any sweep) is not solved again: the table kept on V is returned.
    workers : int
        Worker threads for the sweep.  The reduction orders ties by the
        position in the ascending list of representatives, that is by
        row-major node index, so the result is independent of scheduling.

    Returns
    -------
    BandTable
        Extrema, their phases as tuples of d Python floats
        (lexicographically smallest on ties; the smallest node attaining a
        value is a representative), and the Lipschitz slack for this grid.
    """
    return _sweep(q, V, grid, workers)


def certified_edges(q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1) -> BandTable:
    """Grid sweep plus local refinement of every band extremum.

    Refinement is coordinate descent with geometrically shrinking steps.  All
    2Q extrema step together and each accepts only strict improvements of
    its own band value, so it follows the path it would follow alone: a
    step along axis i probes +h, then -h from wherever +h left it.  Phases
    fold back onto the torus (band functions are periodic with period
    1/q_i per coordinate).  The slack is inherited from the grid;
    refinement only moves sampled extrema outward (toward the true edges),
    never loosens the enclosure.

    A step (round, axis) costs one eigenvalues_sorted_desc call on the
    distinct rows of its 4Q candidates, and one more on the - candidates
    of the extrema that moved on +, if any: the candidates are written
    into one array kept for the whole refinement, the distinct rows are
    found by their bytes, and the extrema compare sign-folded values.
    """
    table = sample_bands(q, V, grid, workers=workers)
    Q = q.Q
    # Row e < Q holds the minimum of band e + 1, row Q + e its maximum;
    # sense turns both into minimization, so score = sense * value (a sign
    # flip, exact) is what every step compares.
    sense = np.repeat([1.0, -1.0], Q)
    score = sense * np.concatenate([table.min_values, table.max_values])
    th = np.array(table.argmin + table.argmax)
    bands = np.arange(2 * Q) % Q
    cand_bands = np.concatenate([bands, bands])
    cand_sense = np.concatenate([sense, sense])
    row_key = np.dtype((np.void, th.itemsize * q.d))
    # The + and - candidates of every extremum, rows [plus; minus] of one
    # array written in place each step; signed[:, i] holds +h_i and -h_i.
    cand = np.empty((4 * Q, q.d))
    halves = cand.reshape(2, 2 * Q, q.d)
    plus, minus = halves
    signed = np.array([grid.steps(q)]) * np.array([[1.0], [-1.0]])

    def probe(rows, cols):
        # Extrema often probe the same phase: solve each distinct row once
        # (rows compared byte for byte, in order of first appearance) and
        # gather each row's band value, signed as its score.
        rank = {}
        at = [rank.setdefault(k, len(rank)) for k in rows.view(row_key).ravel().tolist()]
        distinct = np.frombuffer(b"".join(rank)).reshape(-1, q.d)
        return floquet.eigenvalues_sorted_desc(q, V, distinct)[at, cols]

    for _ in range(REFINE_ROUNDS):
        for i in range(q.d):
            wrap = 1.0 / q.q[i]
            # One solve of every + and - candidate.  An extremum that moves
            # on + probes - from its new phase, in one follow-up solve of
            # those rows only; the others keep their - values.
            halves[:] = th
            column = halves[:, :, i]
            np.add(th[:, i], signed[:, i, None], out=column)
            np.remainder(column, wrap, out=column)
            s = cand_sense * probe(cand, cand_bands)
            s_plus, s_minus = s[:2 * Q], s[2 * Q:]
            moved = s_plus < score
            if moved.any():
                th[moved] = plus[moved]
                score[moved] = s_plus[moved]
                again = th[moved]
                again[:, i] = (again[:, i] + signed[1, i]) % wrap
                minus[moved] = again
                s_minus[moved] = sense[moved] * probe(again, bands[moved])
            better = s_minus < score
            if better.any():
                th[better] = minus[better]
                score[better] = s_minus[better]
        signed *= SHRINK
    phases = tuple(map(tuple, th.tolist()))
    best = sense * score
    best.flags.writeable = False
    return replace(table, min_values=best[:Q], max_values=best[Q:],
                   argmin=phases[:Q], argmax=phases[Q:], refined=True)


def iter_band_rows(q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1) -> Iterator[np.ndarray]:
    """Yield each grid node's descending eigenvalues, a (Q,) row, in
    row-major node order; node j sits at theta_i = j_i h_i.

    Taking the first row solves every time-reversal representative, on
    workers threads, in one pass that also keeps the sweep's BandTable on V
    (see sample_bands), so an eigensolver failure comes before any row.
    Their rows are held in one (R, Q) array, and node j gets the row at
    owner[j] (see _layout), that of its representative min(j, mirror(j)),
    so the rows at j and mirror(j) hold the same bits."""
    coords, owner = _layout(grid.m, owner=True)
    held = np.empty((len(coords), q.Q))
    _sweep(q, V, grid, workers, (coords, held))
    block = _chunk_size(q.Q)
    for start in range(0, grid.n_nodes, block):
        yield from held[owner[start:start + block]]


def assemble_spectrum(table: BandTable) -> SpectrumReport:
    """Merge band intervals into disjoint spectrum intervals plus gap list.

    Sampled intervals closer than the table's merge tolerance, where their
    outer ranges meet, are merged: they could belong to bands that truly
    meet.  A gap is certified when its width keeps positive headroom
    after both outer ends.
    """
    tol = table.merge_tol
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
    return SpectrumReport(
        intervals=intervals,
        gaps=gaps,
        certified=all(table.headroom(g.width, outer=2) > 0.0 for g in gaps),
    )


def estimate_cq(q: PeriodVector, grid: GridSpec, workers: int = 1) -> CqEstimate:
    """Certified coupling threshold from the free band overlaps.

    Computes certified free band edges, takes the per-pair overlaps, and
    returns the headroom of the smallest counted overlap after two outer
    range ends, halved and clipped at zero.  A potential with sup norm
    below the returned value shrinks every counted overlap by at most twice
    its norm, so those pairs keep overlapping.  (Two inner ranges would
    already bound the overlap; the slack it subtracts is spare.)

    For all-even periods the middle pair Q/2 overlaps by exactly 0 (the
    bands touch there by symmetry); that pair alone is excluded and
    flagged through touching_at_zero.  If the grid is too coarse to
    certify a positive threshold the estimate is marked inconclusive.
    """
    table = certified_edges(q, zero_potential(q), grid, workers=workers)
    deltas = table.overlaps
    touching = q.all_even  # pair Q/2 overlaps by exactly 0 (see CqEstimate)
    excluded = [table.Q // 2] if touching else []
    kept = [d for k, d in enumerate(deltas, start=1) if k not in excluded]
    if kept:
        min_overlap = min(kept)
        raw = table.headroom(min_overlap, outer=2) / 2.0
        c_q, inconclusive = max(raw, 0.0), raw <= 0.0
    else:  # no pair counts: Q = 1, or the chiral pair of Q = 2
        min_overlap = min(deltas, default=math.inf)
        c_q, inconclusive = (0.0 if deltas else math.inf), bool(deltas)
    return CqEstimate(
        c_q=c_q,
        touching_at_zero=touching,
        inconclusive=inconclusive,
        min_overlap=min_overlap,
        overlaps=deltas,
        excluded_pairs=tuple(excluded),
        slack=table.slack,
    )


def min_abs_eigenvalue(
    q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1
) -> tuple[float, tuple[float, ...]]:
    """Distance from 0 to the sampled bands, max(0, -depth), with the phase
    of the nearer edge of the deepest band at E = 0 (BandTable.deepest).

    When no band's sampled range holds 0 this is the smallest |eigenvalue|
    over the grid; otherwise it is 0, the true distance, since a band is
    connected.  Only the time-reversal representatives are solved, and
    none for a V already swept on this grid (see sample_bands)."""
    _, depth, theta = _sweep(q, V, grid, workers).deepest(0.0)
    return max(0.0, -depth), theta


def gap_at_zero(q: PeriodVector, V: Potential, grid: GridSpec, workers: int = 1) -> tuple[float, float]:
    """The distance from 0 to the sampled bands (min_abs_eigenvalue, whose
    sweep keeps its table on V) and its headroom after one outer range
    end, a lower bound on the distance from 0 to the spectrum when positive."""
    margin, _ = min_abs_eigenvalue(q, V, grid, workers=workers)
    return margin, _sweep(q, V, grid, workers).headroom(margin, outer=1)
