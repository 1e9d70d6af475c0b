import dataclasses
import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticebands import bandedges, cli, floquet
from latticebands import (
    LIPSCHITZ,
    ComputationError,
    ConfigurationError,
    DomainError,
    GridSpec,
    Interval,
    assemble_spectrum,
    build_dimer,
    build_vq,
    certified_edges,
    certified_slack,
    default_grid,
    eigenvalues_sorted_desc,
    estimate_cq,
    iter_band_rows,
    min_abs_eigenvalue,
    minimal_period,
    period,
    potential,
    random_potential,
    rounding_bound,
    sample_bands,
    verify_gap_at_zero,
    zero_potential,
)

from conftest import grid_thetas, inversion_symmetric, ref_fiber, ref_levels


def dense_band_extrema(q_tuple, V_vals, m_dense):
    """Independent dense sweep: loop-built fibers, one batched eigensolve."""
    d = len(q_tuple)
    axes = [np.arange(mi) / (qi * mi) for qi, mi in zip(q_tuple, m_dense)]
    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([g.ravel() for g in mesh], axis=1)
    mats = np.stack([ref_fiber(q_tuple, V_vals, tuple(th)) for th in thetas])
    vals = np.linalg.eigvalsh(mats)[:, ::-1]
    return vals.min(axis=0), vals.max(axis=0)


def test_grid_spec_validation():
    with pytest.raises(ConfigurationError):
        GridSpec((1, 8))
    with pytest.raises(ConfigurationError):
        GridSpec((300, 300))  # 90000 nodes over the default budget
    g = GridSpec((300, 300), budget=1 << 17)
    assert g.n_nodes == 90000


@pytest.mark.parametrize("m,budget", [
    ((4.7, 4), 10), ((4.0, 4), 10), (("4", 4), 10), ((True, 4), 10),
    ((4, 4), 1.5), ((4, 4), 2.0), ((4, 4), True),
])
def test_grid_spec_rejects_non_integer_counts(m, budget):
    # a float sample count was truncated; a float budget was compared as is
    with pytest.raises(ConfigurationError, match="must be .*integer"):
        GridSpec(m, budget=budget)


@pytest.mark.parametrize("budget", [float("nan"), 4096.0, True, 0, -4096])
def test_budget_must_be_a_positive_integer(budget):
    # a NaN budget turned the node cap off in GridSpec (n_nodes > nan is
    # False) and raised a bare ValueError in default_grid
    with pytest.raises(ConfigurationError, match="budget must be a positive integer"):
        GridSpec((4, 4), budget=budget)
    with pytest.raises(ConfigurationError, match="budget must be a positive integer"):
        default_grid(period((2, 2)), budget=budget)


def test_grid_spec_accepts_numpy_integers():
    g = GridSpec(np.array([6, 4]), budget=np.int32(4096))
    assert g == GridSpec((6, 4), budget=4096)
    assert all(type(x) is int for x in (*g.m, g.budget))


def test_grid_steps():
    q = period((2, 3))
    g = GridSpec((8, 4))
    assert g.steps(q) == (1.0 / 16.0, 1.0 / 12.0)
    with pytest.raises(ConfigurationError):
        g.steps(period((2, 2, 2)))


def test_lipschitz_constants():
    # the gauge bound 4 pi holds on every axis, whatever the period
    assert LIPSCHITZ == 4 * math.pi


def test_certified_slack_closed_form():
    # sum of 2 pi / (q_i m_i), with or without a potential
    q = period((2, 3))
    g = GridSpec((64, 64))
    assert certified_slack(q, g) == pytest.approx(math.pi / 64 + math.pi / 96)
    assert certified_slack(period((1, 4, 2)), GridSpec((8, 6, 10))) == pytest.approx(
        2 * math.pi * (1 / 8 + 1 / 24 + 1 / 20)
    )


def test_default_grid_fits_budget():
    assert default_grid(period((2, 3))).m == (256, 256)
    g3 = default_grid(period((2, 2, 2)))
    assert g3.m == (40, 40, 40)
    assert g3.n_nodes <= 1 << 16
    small = default_grid(period((2, 2)), budget=4096)
    assert small.m == (64, 64)
    assert all(mi % 2 == 0 for mi in small.m)


@pytest.mark.parametrize("d,default", [(2, 256), (3, 40), (4, 16), (5, 8), (6, 6)])
def test_default_grid_is_the_largest_even_root(d, default):
    # int(budget ** (1/d)) undershot perfect powers: (d=3, 4096) gave 14^3
    q = period((2,) * d)
    assert default_grid(q).m == (default,) * d
    budgets = {2**d, 10**30}
    for m in range(2, 42, 2):
        budgets |= {m**d - 1, m**d, m**d + 1}
    for budget in sorted(b for b in budgets if b >= 2**d):
        m = default_grid(q, budget=budget).m
        assert m == (m[0],) * d and m[0] % 2 == 0
        assert m[0] ** d <= budget < (m[0] + 2) ** d, budget


def test_interval_type():
    iv = Interval(-1.0, 2.5)
    assert iv.width == 3.5
    assert iv.lo <= 0.0 <= iv.hi and not iv.lo <= 3.0 <= iv.hi
    with pytest.raises(DomainError):
        Interval(1.0, 0.0)


def test_sampled_extrema_are_attained_and_enclose_free_bands():
    # free case: compare against the closed-form levels on a dense nested grid
    q = period((2, 3))
    coarse = GridSpec((16, 16))
    table = sample_bands(q, zero_potential(q), coarse)
    axes = [np.arange(160) / (qi * 160) for qi in q.q]
    mesh = np.meshgrid(*axes, indexing="ij")
    dense_min = np.full(q.Q, np.inf)
    dense_max = np.full(q.Q, -np.inf)
    for th in np.stack([g.ravel() for g in mesh], axis=1):
        lv = ref_levels(q.q, tuple(th))
        dense_min = np.minimum(dense_min, lv)
        dense_max = np.maximum(dense_max, lv)
    for k in range(q.Q):
        # sampled values are attained: the dense sweep can only go further out
        assert dense_min[k] <= table.min_values[k] + 1e-12
        assert dense_max[k] >= table.max_values[k] - 1e-12
        # and the slack enclosure holds
        assert dense_min[k] >= table.min_values[k] - table.slack
        assert dense_max[k] <= table.max_values[k] + table.slack


def test_enclosure_with_potential_against_loop_reference():
    q = period((2, 2))
    V = random_potential(q, 0.8, seed=11)
    coarse = GridSpec((12, 12))
    table = sample_bands(q, V, coarse)
    dense_min, dense_max = dense_band_extrema(q.q, V.values, (60, 60))
    for k in range(q.Q):
        assert dense_min[k] <= table.min_values[k] + 1e-12
        assert dense_max[k] >= table.max_values[k] - 1e-12
        assert dense_min[k] >= table.min_values[k] - table.slack
        assert dense_max[k] <= table.max_values[k] + table.slack


def test_refinement_only_tightens():
    q = period((2, 3))
    V = random_potential(q, 0.5, seed=3)
    grid = GridSpec((16, 16))
    raw = sample_bands(q, V, grid)
    refined = certified_edges(q, V, grid)
    assert not raw.refined and refined.refined
    assert np.all(refined.min_values <= raw.min_values + 1e-15)
    assert np.all(refined.max_values >= raw.max_values - 1e-15)
    assert refined.slack == raw.slack


def sequential_refinement(q, V, grid, log=None):
    """Coordinate descent one extremum at a time, one fiber matrix per probe.

    log, if given, maps each (round, axis) to one entry per extremum:
    (theta + h, theta - h, moved on +, theta' - h), theta its phase before
    the step and theta' its phase after the + probe, each as hex tuples."""
    table = sample_bands(q, V, grid)
    out = []
    for maximize in (False, True):
        for k in range(1, q.Q + 1):
            theta0 = table.theta_max(k) if maximize else table.theta_min(k)
            best = table.band_max(k) if maximize else table.band_min(k)
            th = list(theta0)
            steps = list(grid.steps(q))
            for r in range(bandedges.REFINE_ROUNDS):
                for i in range(q.d):
                    before = list(th)
                    probes = []
                    for sgn in (1.0, -1.0):
                        cand = list(th)
                        cand[i] = (cand[i] + sgn * steps[i]) % (1.0 / q.q[i])
                        v = float(eigenvalues_sorted_desc(q, V, cand)[k - 1])
                        moved = (v > best) if maximize else (v < best)
                        if moved:
                            th, best = cand, v
                        probes.append((tuple(x.hex() for x in cand), moved))
                    if log is not None:
                        before[i] = (before[i] - steps[i]) % (1.0 / q.q[i])
                        pre_minus = tuple(x.hex() for x in before)
                        log.setdefault((r, i), []).append((probes[0][0], pre_minus, probes[0][1], probes[1][0]))
                steps = [s * bandedges.SHRINK for s in steps]
            out.append((best.hex(), tuple(x.hex() for x in th)))
    return table, out


@pytest.mark.parametrize(
    "q_tuple,m,free",
    [
        ((2, 3), (11, 13), False),
        ((1, 4), (7, 9), False),
        ((2, 2, 3), (5, 5, 7), False),
        ((2, 3), (11, 13), True),
        ((2, 2, 3), (5, 5, 7), True),
    ],
    ids=["q_tuple0-m0", "q_tuple1-m1", "q_tuple2-m2", "free-2,3", "free-2,2,3"],
)
def test_batched_refinement_matches_sequential_reference(q_tuple, m, free):
    q = period(q_tuple)
    # V = 0 solves 1 x 1 fibers on the minimal cell
    V = zero_potential(q) if free else random_potential(q, 0.7, seed=sum(q_tuple))
    grid = GridSpec(m)
    log = {}
    sampled, ref = sequential_refinement(q, V, grid, log)
    # some extremum moves on +, so the follow-up solve of its - probe runs
    assert any(moved for entries in log.values() for _, _, moved, _ in entries)
    table = certified_edges(q, V, grid)
    got = [
        (float(v).hex(), tuple(x.hex() for x in th))
        for v, th in zip(
            np.concatenate([table.min_values, table.max_values]), table.argmin + table.argmax
        )
    ]
    assert got == ref
    # refinement moved some extrema, so the comparison covers accepted steps
    assert np.any(table.min_values != sampled.min_values)
    assert np.any(table.max_values != sampled.max_values)


def test_nested_grids_are_monotone():
    q = period((2, 2))
    V = random_potential(q, 0.6, seed=5)
    coarse = sample_bands(q, V, GridSpec((8, 8)))
    fine = sample_bands(q, V, GridSpec((32, 32)))
    assert np.all(fine.min_values <= coarse.min_values + 1e-15)
    assert np.all(fine.max_values >= coarse.max_values - 1e-15)


def test_band_table_accessors():
    q = period((2, 2))
    table = sample_bands(q, zero_potential(q), GridSpec((8, 8)))
    assert table.band_min(1) == float(table.min_values[0])
    with pytest.raises(DomainError):
        table.band_min(0)
    with pytest.raises(DomainError):
        table.band_max(5)


def test_argmin_is_first_node_attaining_the_minimum():
    # band 2 of the free (2, 2) cell hits its minimum 0 along a whole curve;
    # the reported phase must be the first grid node (row-major) where the
    # computed value equals the reported minimum bit for bit
    q = period((2, 2))
    grid = GridSpec((8, 8))
    table = sample_bands(q, zero_potential(q), grid)
    assert table.band_min(2) == pytest.approx(0.0, abs=1e-12)
    for theta, vals in zip(grid_thetas(q.q, grid.m), iter_band_rows(q, zero_potential(q), grid)):
        if vals[1] == table.band_min(2):
            assert theta == table.theta_min(2)
            break
    else:
        pytest.fail("reported minimum never attained on the grid")


def test_parallel_sweep_matches_serial():
    q = period((2, 3))
    grid = GridSpec((96, 48))  # several chunks of work
    # a fresh V per sweep: a second sweep of one V reuses the first's reductions
    serial = sample_bands(q, random_potential(q, 0.4, seed=9), grid, workers=1)
    parallel = sample_bands(q, random_potential(q, 0.4, seed=9), grid, workers=4)
    assert np.array_equal(serial.min_values, parallel.min_values)
    assert np.array_equal(serial.max_values, parallel.max_values)
    assert serial.argmin == parallel.argmin
    assert serial.argmax == parallel.argmax


def _sweep_results(q, make_V, grid, workers):
    # each sweep gets a fresh V, so each one solves its grid
    table = sample_bands(q, make_V(), grid, workers=workers)
    refined = certified_edges(q, make_V(), grid, workers=workers)
    value, theta = min_abs_eigenvalue(q, make_V(), grid, workers=workers)
    return [
        (t.min_values.tolist(), t.max_values.tolist(), t.argmin, t.argmax) for t in (table, refined)
    ] + [(value, theta)]


@pytest.mark.parametrize(  # 100 does not divide the 4608 nodes
    "chunk,free",
    [(32, False), (100, False), (4096, False), (32, True), (100, True)],
    ids=["32", "100", "4096", "free-32", "free-100"],
)
def test_sweep_results_do_not_depend_on_chunk_size(monkeypatch, chunk, free):
    q = period((2, 3))

    def make_V():
        return zero_potential(q) if free else random_potential(q, 0.4, seed=13)

    grid = GridSpec((64, 72))
    expected = _sweep_results(q, make_V, grid, workers=1)
    expected_rows = list(iter_band_rows(q, make_V(), grid))
    monkeypatch.setattr(bandedges, "_chunk_size", lambda Q: chunk)
    for workers in (1, 2):
        assert _sweep_results(q, make_V, grid, workers) == expected
    assert np.array_equal(np.array(list(iter_band_rows(q, make_V(), grid))), np.array(expected_rows))


def test_threaded_sweep_cancels_pending_chunks_after_a_failure(monkeypatch):
    # the 2050 time-reversal representatives of 64 x 64 make 65 chunks of 32
    # nodes; the chunk holding node 0 fails at once, every other chunk takes
    # 5 ms, so a sweep that waited for the rest would solve about 64 chunks
    q = period((2, 2))
    grid = GridSpec((64, 64))
    solved = []
    kernel = floquet._fiber_eigenvalues

    def slow_chunk(q, V, axes, index):
        if not index[0].any():
            raise ComputationError("eigensolver failed at theta=[0.0, 0.0]")
        time.sleep(0.005)
        out = kernel(q, V, axes, index)
        solved.append(tuple(index[0]))
        return out

    monkeypatch.setattr(bandedges, "_chunk_size", lambda Q: 32)
    monkeypatch.setattr(floquet, "_fiber_eigenvalues", slow_chunk)
    submitted = []
    submit = bandedges.ThreadPoolExecutor.submit

    def spy_submit(self, fn, *args):
        submitted.append(args[-1])
        return submit(self, fn, *args)

    monkeypatch.setattr(bandedges.ThreadPoolExecutor, "submit", spy_submit)
    with pytest.raises(ComputationError):
        sample_bands(q, zero_potential(q), grid, workers=2)
    assert len(submitted) == 65 and submitted[0][0].tolist() == [0, 0]
    assert np.array_equal(np.concatenate(submitted), bandedges._layout(grid.m))
    assert len(solved) < 10


def test_chunk_stack_is_at_most_4_mib():
    for Q in range(1, 91):
        assert bandedges._chunk_size(Q) * Q * Q * 16 <= 4 << 20


@pytest.mark.parametrize("workers", [0, -3])
def test_sweeps_reject_nonpositive_workers(workers):
    q = period((2, 2))
    V = zero_potential(q)
    grid = GridSpec((8, 8))
    with pytest.raises(ConfigurationError, match="workers"):
        sample_bands(q, V, grid, workers=workers)
    with pytest.raises(ConfigurationError, match="workers"):
        min_abs_eigenvalue(q, V, grid, workers=workers)


@pytest.mark.parametrize("workers", [True, 2.5, 1.0, "2"], ids=repr)
def test_sweeps_reject_non_integer_workers(workers):
    # True, 2.5 and 1.0 each returned a table: only "< 1" was checked
    q = period((2, 2))
    V = zero_potential(q)
    grid = GridSpec((8, 8))
    with pytest.raises(ConfigurationError, match="workers must be an integer"):
        sample_bands(q, V, grid, workers=workers)
    with pytest.raises(ConfigurationError, match="workers must be an integer"):
        min_abs_eigenvalue(q, V, grid, workers=workers)


def test_iter_band_rows_row_major():
    # (2, 3) tells the axes apart: node 1 sits at (0, 1/12), node 4 at (1/8, 0)
    q = period((2, 3))
    grid = GridSpec((4, 4))
    rows = list(iter_band_rows(q, zero_potential(q), grid))
    assert len(rows) == 16 and all(vals.shape == (q.Q,) for vals in rows)
    np.testing.assert_allclose(rows[1], ref_levels(q.q, (0.0, 1.0 / 12.0)), atol=1e-9)
    assert not np.allclose(rows[1], ref_levels(q.q, (1.0 / 8.0, 0.0)))
    for theta, vals in zip(grid_thetas(q.q, grid.m), rows):
        np.testing.assert_allclose(vals, ref_levels(q.q, theta), atol=1e-9)
        assert np.all(np.diff(vals) <= 1e-12)


def test_free_spectrum_is_full_interval():
    q = period((2, 3))
    table = certified_edges(q, zero_potential(q), GridSpec((64, 64)))
    report = assemble_spectrum(table)
    assert len(report.intervals) == 1
    assert report.intervals[0].lo == pytest.approx(-4.0, abs=1e-9)
    assert report.intervals[0].hi == pytest.approx(4.0, abs=1e-9)
    assert report.gaps == ()
    assert report.certified


def test_staggered_spectrum_splits_into_two_intervals():
    q = period((2, 2))
    delta = 0.5
    table = certified_edges(q, build_dimer(q, delta), GridSpec((128, 128), budget=1 << 16))
    report = assemble_spectrum(table)
    assert len(report.intervals) == 2
    gap = report.gaps[0]
    assert gap.lo == pytest.approx(-delta, abs=table.slack)
    assert gap.hi == pytest.approx(delta, abs=table.slack)
    assert gap.width > 2 * table.slack
    assert report.certified


def test_merge_tolerance_floor():
    # the merge tolerance is 2 (slack + rounding), the smallest sound one:
    # sampled intervals that close have outer ranges that meet, so they
    # could belong to bands that truly meet
    q = period((1, 2))
    table = sample_bands(q, zero_potential(q), GridSpec((8, 8)))
    assert table.rounding == (q.Q + 8) * 2.0**-52 * (2 * q.d)
    w = table.slack + table.rounding
    for gap, n in ((2 * w, 1), (2.5 * w, 2)):
        split = dataclasses.replace(table, min_values=np.array([1.0 + gap, 0.0]),
                                    max_values=np.array([2.0 + gap, 1.0]))
        report = assemble_spectrum(split)
        assert split.merge_tol == 2 * w
        assert len(report.intervals) == n
        assert report.certified


def test_overlaps_definition():
    q = period((2, 3))
    table = certified_edges(q, zero_potential(q), GridSpec((64, 64)))
    got = table.overlaps
    assert len(got) == q.Q - 1
    for k in range(1, q.Q):
        assert got[k - 1] == pytest.approx(
            table.band_max(k + 1) - table.band_min(k), abs=0.0
        )
    # the free (2, 3) overlap pattern alternates wide and narrow
    np.testing.assert_allclose(got, [2.0, 0.5, 2.0, 0.5, 2.0], atol=1e-3)


def test_estimate_cq_mixed_periods():
    q = period((2, 3))
    est = estimate_cq(q, GridSpec((64, 64)))
    assert not est.touching_at_zero
    assert not est.inconclusive
    assert est.excluded_pairs == ()
    assert est.min_overlap == pytest.approx(0.5, abs=1e-3)
    rho = rounding_bound(q, zero_potential(q))
    assert est.c_q == (est.min_overlap - 2 * (est.slack + rho)) / 2
    assert est.c_q == pytest.approx(0.168, abs=2e-3)


def test_estimate_cq_excludes_touching_pair_for_even_periods():
    q = period((2, 2))
    est = estimate_cq(q, GridSpec((64, 64)))
    assert est.touching_at_zero
    assert est.excluded_pairs == (2,)
    assert est.overlaps[1] == pytest.approx(0.0, abs=1e-9)
    assert not est.inconclusive
    assert est.c_q == pytest.approx(1.0 - est.slack, abs=1e-9)


@pytest.mark.parametrize("q_tuple,m", [
    ((2, 2, 2, 2), (8, 8, 8, 8)), ((4, 4), (8, 8)), ((6, 6), (8, 8)), ((2, 4), (16, 16)),
    ((2, 3), (8, 8)), ((3, 3), (8, 8)),
])
def test_estimate_cq_excludes_exactly_the_chiral_pair(q_tuple, m):
    # only pair Q/2 of an all-even cell overlaps by exactly 0; every other
    # pair counts, even where the coarse grid leaves its edges within
    # 2 slack of 0 (pairs 5-11 of 2,2,2,2 at 8^4, overlaps about 2 < 2 slack)
    q = period(q_tuple)
    est = estimate_cq(q, GridSpec(m))
    assert est.touching_at_zero == q.all_even
    assert est.excluded_pairs == ((q.Q // 2,) if q.all_even else ())
    kept = [d for k, d in enumerate(est.overlaps, start=1) if k not in est.excluded_pairs]
    assert est.min_overlap == min(kept)
    w = est.slack + rounding_bound(q, zero_potential(q))
    assert est.inconclusive == (min(kept) <= 2.0 * w)
    assert est.c_q == max((min(kept) - 2.0 * w) / 2.0, 0.0)
    if q_tuple == (2, 2, 2, 2):
        assert est.inconclusive and est.c_q == 0.0


def test_estimate_cq_inconclusive_on_coarse_grid():
    q = period((2, 3))
    est = estimate_cq(q, GridSpec((4, 4)))
    assert est.inconclusive
    assert est.c_q == 0.0


def _deepest_reference(rows, thetas, E):
    """BandTable.deepest's rule read off brute-force rows, band by band: the
    band of largest min(max - E, E - min) (the first on ties), its depth,
    and the phase of the first row-major node attaining its nearer edge."""
    best = None
    for k in range(rows.shape[1]):
        lo, hi = rows[:, k].min(), rows[:, k].max()
        depth = min(hi - E, E - lo)
        if best is None or depth > best[1]:
            edge = hi if hi - E <= E - lo else lo
            best = (k + 1, depth, tuple(thetas[np.flatnonzero(rows[:, k] == edge)[0]]))
    return best


def _distance_reference(rows, thetas):
    """min_abs_eigenvalue read off brute-force rows: max(0, -depth) at 0."""
    _, depth, theta = _deepest_reference(rows, thetas, 0.0)
    return max(0.0, -depth), theta


def test_min_abs_eigenvalue_finds_zero_crossing():
    # sampled band ranges hold 0, so the distance is 0 exactly, reported at
    # the nearer edge of the deepest band
    q = period((2, 2))
    grid = GridSpec((8, 8))
    value, theta = min_abs_eigenvalue(q, zero_potential(q), grid)
    rows = np.array(list(iter_band_rows(q, zero_potential(q), grid)))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert (value, theta) == _distance_reference(rows, grid_thetas(q.q, grid.m))


def test_min_abs_eigenvalue_with_gap():
    q = period((2, 2))
    delta = 0.4
    value, _ = min_abs_eigenvalue(q, build_dimer(q, delta), GridSpec((64, 64)))
    # the staggered spectrum stays exactly delta away from zero
    assert value >= delta - 1e-12
    assert value == pytest.approx(delta, abs=2e-2)


@pytest.mark.parametrize("free", [True, False], ids=["free", "random"])
def test_refinement_solves_each_distinct_probe_once(monkeypatch, free):
    q = period((3, 3))
    V = zero_potential(q) if free else random_potential(q, 0.5, seed=21)
    grid = GridSpec((16, 16))
    expected = certified_edges(q, V, grid)
    # per (round, axis): one solve of the distinct + and - candidates of all
    # extrema, then, if some extremum moved on +, one solve of the distinct
    # - candidates taken from the moved extrema's new phases
    log = {}
    sequential_refinement(q, V, grid, log)
    want = []
    for r in range(bandedges.REFINE_ROUNDS):
        for i in range(q.d):
            entries = log[(r, i)]
            want.append({row for plus, minus, _, _ in entries for row in (plus, minus)})
            again = {minus for _, _, moved, minus in entries if moved}
            if again:
                want.append(again)
    calls = []
    solved = []
    public = floquet.eigenvalues_sorted_desc
    kernel = floquet._fiber_eigenvalues

    def spy_public(q_, V_, theta):
        calls.append(np.array(theta))
        return public(q_, V_, theta)

    def spy_kernel(q_, V_, axes, index=None):
        if calls:
            assert index is None  # probes pass their phases' columns
            solved.append(np.stack(axes, axis=1))
        return kernel(q_, V_, axes, index)

    monkeypatch.setattr(floquet, "eigenvalues_sorted_desc", spy_public)
    monkeypatch.setattr(floquet, "_fiber_eigenvalues", spy_kernel)
    table = certified_edges(q, V, grid)
    assert len(calls) == len(solved) == len(want)
    for theta, rows, rows_want in zip(calls, solved, want):
        got = {tuple(x.hex() for x in row) for row in theta.tolist()}
        assert rows.tobytes() == theta.tobytes()  # the kernel solves what was probed
        assert len(theta) == len(got)  # distinct phases only
        assert got == rows_want
    follow_ups = len(want) - bandedges.REFINE_ROUNDS * q.d
    assert (follow_ups == 0) if free else (follow_ups > 0)
    # the 4Q candidates of a step share phases, so deduplication saves solves
    assert sum(map(len, solved)) < 4 * q.Q * bandedges.REFINE_ROUNDS * q.d
    assert table.min_values.tobytes() == expected.min_values.tobytes()
    assert table.max_values.tobytes() == expected.max_values.tobytes()
    assert (table.argmin, table.argmax) == (expected.argmin, expected.argmax)


def _record_calls(monkeypatch, names):
    """Wrap the named public floquet functions; returns the list that gets
    (name, thread ident) of each call, as a tracer of them would see it."""
    calls = []
    for name in names:
        def wrapper(*args, _orig=getattr(floquet, name), _name=name):
            calls.append((_name, threading.get_ident()))
            return _orig(*args)
        monkeypatch.setattr(floquet, name, wrapper)
    return calls


def test_a_wrapper_of_assemble_sees_every_complex_probe_solve(monkeypatch):
    # a tracer counts refinement probes by its floquet.assemble spans: a
    # random cell makes one assemble call inside each probe solve, and an
    # inversion-symmetric dimer cell, solved in a real basis, makes none
    calls = _record_calls(monkeypatch, ("assemble", "eigenvalues_sorted_desc"))
    q = period((3, 4))
    certified_edges(q, random_potential(q, 0.3, seed=1), GridSpec((16, 16)))
    probes = len(calls) // 2
    assert probes >= bandedges.REFINE_ROUNDS * q.d
    assert [name for name, _ in calls] == ["eigenvalues_sorted_desc", "assemble"] * probes
    calls.clear()
    q = period((4, 4))
    certified_edges(q, build_dimer(q, 0.2), GridSpec((16, 16)))
    assert len(calls) >= bandedges.REFINE_ROUNDS * q.d
    assert {name for name, _ in calls} == {"eigenvalues_sorted_desc"}


@pytest.mark.parametrize("q_tuple,kind", [((3, 4), "random"), ((2, 3), "zero")])
def test_refinement_builds_site_parts_once_per_potential(monkeypatch, q_tuple, kind):
    # the site-basis parts are kept on the potential that assemble stacks
    # (the minimal cell's): probes stack from them and build none
    builds = []
    parts = floquet._fiber_parts

    def spy_parts(p, values, image):
        builds.append((p.q, image is None))
        return parts(p, values, image)

    monkeypatch.setattr(floquet, "_fiber_parts", spy_parts)
    probes = _record_calls(monkeypatch, ("assemble",))
    q = period(q_tuple)
    V = POTENTIALS[kind](q)
    certified_edges(q, V, GridSpec((16, 16)))
    assert len(probes) >= bandedges.REFINE_ROUNDS * q.d
    assert builds == [(V._cell[0].q, True)]
    assert V._fiber is V._cell[1]._site_fiber
    certified_edges(q, V, GridSpec((8, 8)))
    assert len(builds) == 1


def test_threaded_sweep_calls_no_public_name_from_a_worker(monkeypatch, capsys):
    # a tracer may keep its span stack per thread only if the sweep's
    # worker threads never enter a wrapped public name
    calls = _record_calls(monkeypatch, ("assemble", "eigenvalues_sorted_desc"))
    kernel_threads = set()
    kernel = floquet._fiber_eigenvalues

    def spy_kernel(*args):
        kernel_threads.add(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(floquet, "_fiber_eigenvalues", spy_kernel)
    argv = ["spectrum", "--q", "3,3", "--potential", "random", "--delta", "0.3",
            "--grid", "32,32", "--workers", "2", "--json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    main = threading.get_ident()
    assert kernel_threads - {main}  # the sweep ran on worker threads
    assert calls and {ident for _, ident in calls} == {main}


POTENTIALS = {
    "zero": zero_potential,
    "dimer": lambda q: build_dimer(q, 0.2),
    "random": lambda q: random_potential(q, 0.3, seed=1),
}


@pytest.mark.parametrize("q_tuple,kind", [
    ((2, 3), "zero"), ((6, 6), "zero"), ((4, 4), "dimer"), ((3, 3, 2), "zero"), ((4, 4), "random"),
])
def test_minimal_cell_sweep_stack_is_at_most_4_mib(monkeypatch, q_tuple, kind):
    # a chunk of n nodes solves n K fibers of size P = Q/K, and K P^2 <= Q^2
    q = period(q_tuple)
    V = POTENTIALS[kind](q)
    grid = GridSpec((48,) * q.d if q.d == 2 else (16,) * q.d)
    sizes = []
    solve = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        sizes.append(a.nbytes)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    sample_bands(q, V, grid)
    assert sizes and max(sizes) <= min(bandedges._chunk_size(q.Q) * q.Q * q.Q * 16, 4 << 20)


def _symmetric_potential(q):
    """Random on the cell (3, 2) or (3, 2, 2), symmetric about the centre
    (2, 1) or (2, 1, 0), tiled over q = (3, 4) or (3, 4, 2)."""
    p = (3, 2, 2)[:q.d]
    cell = inversion_symmetric(np.random.default_rng(3).uniform(-0.3, 0.3, size=p), (2, 1, 0)[:q.d])
    return potential(q, np.tile(cell, [qi // pi for qi, pi in zip(q.q, p)]).ravel())


@pytest.mark.parametrize("m", [(9, 8), (7, 9), (6, 7, 4)], ids=["9x8", "7x9", "6x7x4"])
@pytest.mark.parametrize("kind", ["zero", "dimer", "random", "vq", "symmetric"])
def test_table_sweep_equals_node_phase_solve_bit_for_bit(monkeypatch, kind, m):
    # the sweep gathers its functions of the phases (complex factors, or
    # cos and sin of an inversion-symmetric cell) from per-axis tables at
    # the nodes' grid coordinates; the reference solves the node phases
    # j_i h_i through the kernel's probe path
    q = period((4, 4) if len(m) == 2 else (2, 4, 2))
    build = POTENTIALS.get(kind, lambda q: build_vq(q, 0.15))
    if kind == "symmetric":  # a centre off the origin and an odd p_1
        q, build = period((3, 4) if len(m) == 2 else (3, 4, 2)), _symmetric_potential
    V = build(q)
    K = {"zero": q.Q, "dimer": q.Q // 2 ** q.d, "random": 1, "vq": 1, "symmetric": 2}[kind]
    assert math.prod(minimal_period(V)) == q.Q // K
    assert (not np.iscomplexobj(V._fiber[0])) == (kind in ("dimer", "vq", "symmetric"))
    grid = GridSpec(m)
    coords = bandedges._layout(grid.m)
    thetas = coords * np.array(grid.steps(q))
    want = floquet._fiber_eigenvalues(q, V, thetas.T)
    axes = [np.arange(mi) * h for mi, h in zip(grid.m, grid.steps(q))]
    assert floquet._fiber_eigenvalues(q, V, axes, coords).tobytes() == want.tobytes()
    monkeypatch.setattr(bandedges, "_chunk_size", lambda Q: 7)
    submit = bandedges.ThreadPoolExecutor.submit

    def spy_submit(self, fn, q_, V_, *args):
        # worker threads only read the cell and fiber parts of V
        assert {"_cell", "_fiber"} <= set(vars(V_))
        return submit(self, fn, q_, V_, *args)

    monkeypatch.setattr(bandedges.ThreadPoolExecutor, "submit", spy_submit)
    for workers in (1, 2):
        held = np.empty((len(coords), q.Q))
        bandedges._sweep(q, build(q), grid, workers, (coords, held))
        assert held.tobytes() == want.tobytes()


def _brute_mirror(m):
    """Row-major index of every node's mirror, -j_i mod m_i, decoded node by node."""
    return np.array([np.ravel_multi_index(tuple(-c % mi for c, mi in zip(np.unravel_index(j, m), m)), m)
                     for j in range(math.prod(m))])


def test_mirror_pairs_every_grid_node():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        m = tuple(int(x) for x in rng.integers(2, 10 if d < 4 else 6, size=d))
        N = math.prod(m)
        nodes = np.arange(N)
        mirror = _brute_mirror(m)
        assert np.array_equal(mirror[mirror], nodes)
        assert np.array_equal(np.sort(mirror), nodes)  # onto the grid itself
        coords, owner = bandedges._layout(m, owner=True)
        assert np.array_equal(bandedges._layout(m), coords)
        assert coords.shape[1] == d and np.issubdtype(coords.dtype, np.integer)
        reps = np.ravel_multi_index(tuple(coords.T), m)
        assert np.array_equal(reps, nodes[nodes <= mirror])  # ascending
        F = math.prod(2 if mi % 2 == 0 else 1 for mi in m)
        assert len(reps) == (N + F) // 2
        fixed = mirror[reps] == reps
        assert np.count_nonzero(fixed) == F
        covered = np.concatenate([reps, mirror[reps[~fixed]]])
        assert np.array_equal(np.sort(covered), nodes)
        assert np.array_equal(reps[owner], np.minimum(nodes, mirror))


def _full_grid_reference(q, V, grid):
    """Every grid node solved at its own phase, row-major."""
    coords = np.unravel_index(np.arange(grid.n_nodes), grid.m)
    thetas = np.stack([c * h for c, h in zip(coords, grid.steps(q))], axis=1)
    return thetas, eigenvalues_sorted_desc(q, V, thetas)


def _random_case(rng, kind):
    d = int(rng.integers(2, 4))
    choices = [2, 4] if kind in ("dimer", "vq") else [1, 2, 3, 4]
    q = period(tuple(int(x) for x in rng.choice(choices, size=d)))
    while q.Q > 16:  # keeps the full-grid reference small
        q = period(tuple(int(x) for x in rng.choice(choices, size=d)))
    V = {
        "free": zero_potential,
        "dimer": lambda q: build_dimer(q, 0.2),
        "vq": lambda q: build_vq(q, 0.15),
        "random": lambda q: random_potential(q, 0.5, seed=int(rng.integers(1 << 30))),
    }[kind](q)
    # odd and even sample counts, so some axes have no self-mirrored node
    hi = 12 if d == 2 else 6
    grid = GridSpec(tuple(int(x) for x in rng.integers(2, hi, size=d)))
    return q, V, grid


@pytest.mark.parametrize("kind", ["free", "dimer", "vq", "random"])
def test_half_grid_sweep_matches_full_grid_reference(kind):
    rng = np.random.default_rng({"free": 1, "dimer": 2, "vq": 3, "random": 4}[kind])
    for _ in range(12):
        q, V, grid = _random_case(rng, kind)
        thetas, ref = _full_grid_reference(q, V, grid)
        table = sample_bands(q, V, grid)
        np.testing.assert_allclose(table.min_values, ref.min(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.max_values, ref.max(axis=0), rtol=0, atol=1e-12)
        value, theta = min_abs_eigenvalue(q, V, grid)
        # every reported phase is the smallest row-major node whose swept
        # value equals the reported one bit for bit
        rows = np.array(list(iter_band_rows(q, V, grid)))
        for k in range(q.Q):
            for want, got in ((table.min_values[k], table.argmin[k]), (table.max_values[k], table.argmax[k])):
                first = int(np.flatnonzero(rows[:, k] == want)[0])
                assert tuple(thetas[first]) == got
        assert (value, theta) == _distance_reference(rows, thetas)
        # the distance to the sampled bands is 0 when a sampled range holds
        # 0, and the smallest |E| otherwise
        holds_zero = bool(np.any((rows.min(axis=0) <= 0.0) & (rows.max(axis=0) >= 0.0)))
        if kind in ("dimer", "vq"):  # the spectrum avoids a window around 0
            assert not holds_zero
        if holds_zero:
            assert value == 0.0
        else:
            assert value == np.abs(rows).min()
            assert abs(value - np.abs(ref).min()) <= 1e-12


@pytest.mark.parametrize("m", [(64, 64), (7, 9), (6, 5, 4)], ids=["64x64", "7x9", "6x5x4"])
def test_reducing_sweeps_solve_only_representatives(monkeypatch, m):
    # a fresh V solves the (N + F)/2 representatives once, whichever sweep
    # comes first; a later reducing sweep of the same V and grid solves
    # nothing, and the row pass, whose rows are not kept, solves them again
    q = period((2, 2) if len(m) == 2 else (2, 2, 2))
    grid = GridSpec(m)
    F = math.prod(2 if mi % 2 == 0 else 1 for mi in m)
    reps = (grid.n_nodes + F) // 2
    solved = []
    kernel = floquet._fiber_eigenvalues

    def spy_kernel(q_, V_, axes, index):
        # the sweep passes the grid values of each axis and a chunk's coordinates
        assert [len(a) for a in axes] == list(grid.m)
        solved.append(len(index))
        return kernel(q_, V_, axes, index)

    def rows(q_, V_, grid_, workers):
        return list(iter_band_rows(q_, V_, grid_))

    monkeypatch.setattr(floquet, "_fiber_eigenvalues", spy_kernel)
    for workers in (1, 2):
        for first in (sample_bands, min_abs_eigenvalue, rows):
            V = random_potential(q, 0.3, seed=5)
            solved.clear()
            first(q, V, grid, workers=workers)
            assert sum(solved) == reps
            solved.clear()
            sample_bands(q, V, grid, workers=workers)
            min_abs_eigenvalue(q, V, grid, workers=workers)
            assert solved == []
            rows(q, V, grid, workers)
            assert sum(solved) == reps
    if m == (64, 64):
        assert reps == 2050


def test_one_potential_on_two_grids_matches_a_fresh_potential_per_grid():
    q = period((2, 3))
    shared = random_potential(q, 0.4, seed=21)
    grids = [GridSpec((12, 9)), GridSpec((8, 8))]
    for _ in range(2):  # the second round is served from the kept reductions
        for grid in grids:
            fresh = random_potential(q, 0.4, seed=21)
            for sweep in (sample_bands, certified_edges):
                a, b = sweep(q, shared, grid), sweep(q, fresh, grid)
                assert a.min_values.tolist() == b.min_values.tolist()
                assert a.max_values.tolist() == b.max_values.tolist()
                assert (a.argmin, a.argmax) == (b.argmin, b.argmax)
            assert min_abs_eigenvalue(q, shared, grid) == min_abs_eigenvalue(q, random_potential(q, 0.4, seed=21), grid)
    assert sorted(shared._sweeps) == [(8, 8), (12, 9)]
    # the kept table is the one every sweep returns, also to a grid that
    # differs only in its budget
    other = GridSpec((8, 8), budget=64)
    kept = shared._sweeps[(8, 8)]
    assert sample_bands(q, shared, other) is kept


def test_every_returned_phase_is_a_tuple_of_python_floats():
    from latticebands import coincident_group, interior_witness, phase

    def is_phase(theta, d):
        return type(theta) is tuple and len(theta) == d and all(type(x) is float for x in theta)

    grid = GridSpec((8, 8))
    # free, real-form (an inversion-symmetric cell) and complex cells
    cells = [
        (period((2, 3)), zero_potential(period((2, 3)))),
        (period((2, 2)), build_vq(period((2, 2)), 0.2)),
        (period((2, 3)), random_potential(period((2, 3)), 0.5, seed=3)),
    ]
    for q, V in cells:
        for table in (sample_bands(q, V, grid), certified_edges(q, V, grid)):
            assert all(is_phase(theta, q.d) for theta in table.argmin + table.argmax)
            assert is_phase(table.deepest(0.3)[2], q.d)
        assert is_phase(min_abs_eigenvalue(q, V, grid)[1], q.d)
    q = period((2, 3))
    assert is_phase(interior_witness(q, 0.5, grid).theta_witness, q.d)
    for theta in ((0, 0.25), [np.float64(0.1), 0]):
        assert is_phase(coincident_group(q, theta, (0, 0)).theta, q.d)
    assert is_phase(phase(q, (1, np.float32(0.7))), q.d)


@pytest.mark.parametrize("q_tuple", [(3, 2), (2, 2)])
def test_every_sweep_rejects_a_potential_of_other_periods(q_tuple):
    q = period(q_tuple)
    V = random_potential(period((2, 3)), 0.3, seed=2)
    grid = GridSpec((4, 4))
    for sweep in (sample_bands, min_abs_eigenvalue, lambda *a: list(iter_band_rows(*a))):
        with pytest.raises(DomainError, match="do not match"):
            sweep(q, V, grid)
    assert V._sweeps == {}  # nothing kept under a wrong cell


@pytest.mark.parametrize("m", [(16, 12), (9, 7)])
def test_band_rows_at_mirrored_nodes_are_bit_identical(m):
    q = period((2, 3))
    V = random_potential(q, 0.4, seed=17)
    grid = GridSpec(m)
    rows = list(iter_band_rows(q, V, grid))
    assert len(rows) == grid.n_nodes
    mirror = _brute_mirror(grid.m)
    for j, mj in enumerate(mirror):
        assert rows[j].tobytes() == rows[mj].tobytes()


@settings(max_examples=100)
@given(
    m=st.integers(2, 3).flatmap(lambda d: st.tuples(*[st.integers(2, 9)] * d)),
    q_tuple=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    kind=st.sampled_from(["zero", "random"]),
)
def test_layout_and_sweeps_match_a_brute_force_decode(m, q_tuple, kind):
    d, N = len(m), math.prod(m)
    mirror = _brute_mirror(m)
    nodes = np.arange(N)
    coords, owner = bandedges._layout(m, owner=True)
    reps = np.ravel_multi_index(tuple(coords.T), m)
    F = math.prod(2 if mi % 2 == 0 else 1 for mi in m)
    assert np.array_equal(reps, nodes[nodes <= mirror]) and len(reps) == (N + F) // 2
    assert np.array_equal(owner, owner[mirror])
    assert np.array_equal(reps[owner], np.minimum(nodes, mirror))
    # every node takes the row solved at the phase of min(j, mirror(j))
    q = period(q_tuple[:d])
    grid = GridSpec(m)
    build = POTENTIALS[kind]
    thetas = np.array(grid_thetas(q.q, m))
    ref = eigenvalues_sorted_desc(q, build(q), thetas[np.minimum(nodes, mirror)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bandedges, "_chunk_size", lambda Q: 7)  # several chunks per worker
        for workers in (1, 2):
            table = sample_bands(q, build(q), grid, workers=workers)
            assert table.min_values.tobytes() == ref.min(axis=0).tobytes()
            assert table.max_values.tobytes() == ref.max(axis=0).tobytes()
            for k in range(q.Q):
                assert table.argmin[k] == tuple(thetas[np.flatnonzero(ref[:, k] == ref[:, k].min())[0]])
                assert table.argmax[k] == tuple(thetas[np.flatnonzero(ref[:, k] == ref[:, k].max())[0]])
            value, theta = min_abs_eigenvalue(q, build(q), grid, workers=workers)
            assert (value, theta) == _distance_reference(ref, thetas)
            held = np.empty((len(coords), q.Q))
            bandedges._sweep(q, build(q), grid, workers, (coords, held))
            assert held[owner].tobytes() == ref.tobytes()
        assert np.array(list(iter_band_rows(q, build(q), grid))).tobytes() == ref.tobytes()


@settings(max_examples=60)
@given(
    cell=st.integers(2, 3).flatmap(lambda d: st.tuples(
        st.tuples(*[st.sampled_from([2, 4])] * d), st.tuples(*[st.integers(2, 7)] * d))),
    delta=st.floats(0.01, 0.25),
    kind=st.sampled_from(["dimer", "vq"]),
)
def test_gap_margin_is_the_smallest_abs_level_of_every_grid_node(cell, delta, kind):
    # (-delta, delta - delta^3/d) avoids the spectrum of both cells, so no
    # sampled band range holds 0 and the distance read off the band extrema
    # is the smallest |E| over every grid node, bit for bit
    q_tuple, m = cell
    q, grid = period(q_tuple), GridSpec(m)
    build = (lambda: build_dimer(q, delta)) if kind == "dimer" else (lambda: build_vq(q, delta))
    nodes = np.arange(grid.n_nodes)
    thetas = np.array(grid_thetas(q.q, m))
    ref = eigenvalues_sorted_desc(q, build(), thetas[np.minimum(nodes, _brute_mirror(m))])
    own = eigenvalues_sorted_desc(q, build(), thetas)  # each node at its own phase
    for workers in (1, 2):
        value, _ = min_abs_eigenvalue(q, build(), grid, workers=workers)
        assert value == np.abs(ref).min()
        assert abs(value - np.abs(own).min()) <= 1e-12
        # a fresh potential, not yet swept
        assert verify_gap_at_zero(build(), delta, grid, workers=workers).margin == value


@pytest.mark.parametrize("q_tuple,kind,m,node", [
    ((2, 3), "zero", (8, 8), (3, 5)), ((4, 2), "dimer", (6, 5), (1, 2)),
], ids=["free", "dimer"])
def test_grid_eigensolver_failure_names_the_failing_node(monkeypatch, q_tuple, kind, m, node):
    # one fiber of node j != 0 of a folded cell fails alone: every sweep
    # names that node's phase j_i h_i
    q = period(q_tuple)
    grid = GridSpec(m)
    steps = grid.steps(q)
    theta = [j * h for j, h in zip(node, steps)]
    V = POTENTIALS[kind](q)
    shifts = V._cell[2]
    assert len(shifts) > 1
    coords = bandedges._layout(m)
    kappa = ((coords * np.array(steps))[:, None, :] + shifts).reshape(-1, q.d)
    stack = floquet._stack(V._fiber, len(kappa), kappa.T)
    at = int(np.flatnonzero((coords == node).all(axis=1))[0]) * len(shifts) + len(shifts) - 1
    bad = stack[at]
    assert [j for j, Mj in enumerate(stack) if np.array_equal(Mj, bad)] == [at]
    solve = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if a.ndim == 3 or np.array_equal(a, bad):
            raise np.linalg.LinAlgError("no convergence")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    message = re.escape(f"eigensolver failed at theta={theta}: no convergence")
    for workers in (1, 2):
        with pytest.raises(ComputationError, match=f"^{message}$"):
            sample_bands(q, POTENTIALS[kind](q), grid, workers=workers)
    with pytest.raises(ComputationError, match=f"^{message}$"):
        next(iter_band_rows(q, POTENTIALS[kind](q), grid))


@settings(max_examples=60)
@given(
    cell=st.sampled_from([
        ((3, 3), (24, 24)), ((3, 4), (24, 24)), ((2, 5), (24, 24)), ((3, 5), (24, 24)), ((5, 5), (24, 24)),
        ((2, 2), (24, 24)), ((2, 4), (24, 24)), ((4, 4), (24, 24)), ((2, 2, 2), (10, 10, 10)),
    ]),
    s=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_potentials_below_c_q_open_no_new_gap(cell, s, seed):
    # the paper's theorem: with ||V|| < c_q every counted pair of bands keeps
    # overlapping, so a cell with an odd period has one spectral interval and
    # an all-even cell at most two (its chiral pair may open a gap at 0)
    q_tuple, m = cell
    q, grid = period(q_tuple), GridSpec(m)
    est = estimate_cq(q, grid)
    assume(not est.inconclusive)
    spectrum = assemble_spectrum(certified_edges(q, random_potential(q, s * est.c_q, seed), grid))
    if q.all_even:
        assert len(spectrum.intervals) <= 2
    else:
        assert len(spectrum.intervals) == 1 and spectrum.certified


# The verdict formulas as they were before BandTable owned the enclosure,
# kept here as the reference, with the rounding rho as documented: every
# outer range end widens by slack + rho, every inner range end narrows by rho.
def _ref_spectrum(lo, hi, slack, rho):
    tol = 2.0 * (slack + rho)
    merged = []
    for a, b in sorted(zip(lo, hi)):
        if merged and a <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    gaps = [(x[1], y[0]) for x, y in zip(merged, merged[1:])]
    certified = all(g_hi - g_lo > 2.0 * (slack + rho) for g_lo, g_hi in gaps)
    return [tuple(iv) for iv in merged], gaps, tol, certified


def _ref_deepest(lo, hi, E):
    best = None
    for k, (a, b) in enumerate(zip(lo, hi)):
        depth = min(b - E, E - a)
        if best is None or depth > best[1]:
            best = (k, depth, "max" if b - E <= E - a else "min")
    return best


def _ref_cq(lo, hi, slack, rho, all_even):
    deltas = [hi[k + 1] - lo[k] for k in range(len(lo) - 1)]
    excluded = [len(lo) // 2] if all_even else []
    kept = [d for k, d in enumerate(deltas, start=1) if k not in excluded]
    if not kept:
        return (math.inf if not deltas else 0.0), bool(deltas), deltas
    raw = (min(kept) - 2.0 * (slack + rho)) / 2.0
    return max(raw, 0.0), raw <= 0.0, deltas


@settings(max_examples=300)
@given(
    q_tuple=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4)]),
    data=st.data(),
    slack=st.floats(0.0, 0.5),
    rho=st.floats(0.0, 1e-3),
    E=st.floats(-3.99, 3.99),
    delta=st.floats(0.01, 0.25),
)
def test_every_verdict_reads_the_enclosure_like_the_old_formulas(q_tuple, data, slack, rho, E, delta):
    from latticebands import counterexample, freebands

    q = period(q_tuple)
    ends = data.draw(st.lists(st.tuples(st.floats(-4.5, 4.5), st.floats(-4.5, 4.5)),
                              min_size=q.Q, max_size=q.Q))
    lo = [min(p) for p in ends]
    hi = [max(p) for p in ends]
    grid = GridSpec((4, 4))
    table = bandedges.BandTable(
        q, np.array(lo), np.array(hi),
        tuple((float(k), 0.0) for k in range(q.Q)), tuple((float(k), 1.0) for k in range(q.Q)),
        slack, rho, refined=True)

    report = assemble_spectrum(table)
    merged, gaps, tol, certified = _ref_spectrum(lo, hi, slack, rho)
    assert [(iv.lo, iv.hi) for iv in report.intervals] == merged
    assert [(g.lo, g.hi) for g in report.gaps] == gaps
    assert table.merge_tol == tol and report.certified == certified
    assert list(table.overlaps) == [hi[k + 1] - lo[k] for k in range(q.Q - 1)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bandedges, "_sweep", lambda *args: table)
        mp.setattr(bandedges, "certified_edges", lambda *args, **kwargs: table)
        # the gap check: the distance from 0 to the sampled bands, less one
        # outer range end
        k, depth, _ = _ref_deepest(lo, hi, 0.0)
        margin = max(0.0, -depth)
        assert bandedges.gap_at_zero(q, zero_potential(q), grid) == (margin, margin - (slack + rho))
        check = counterexample.verify_gap_at_zero(zero_potential(q), delta, grid)
        assert (check.margin, check.certified_margin) == (margin, margin - (slack + rho))
        assert check.passes == (margin > delta / 2.0)
        assert check.inconclusive == (margin - (slack + rho) <= delta / 2.0)
        # the witness: the deepest band, its depth less one inner range end
        res = freebands.interior_witness(q, E, grid)
        if E == 0.0 and q.all_even:
            assert (res.band_index, res.margin, res.touching_at_zero) == (q.Q // 2, 0.0, True)
        else:
            k, depth, edge = _ref_deepest(lo, hi, E)
            assert (res.band_index, res.margin) == (k + 1, depth - rho)
            assert res.theta_witness == (float(k), 0.0 if edge == "min" else 1.0)
        # c_q: the smallest counted overlap less two outer range ends, halved
        est = estimate_cq(q, grid)
        c_q, inconclusive, deltas = _ref_cq(lo, hi, slack, rho, q.all_even)
        assert (est.c_q, est.inconclusive, list(est.overlaps)) == (c_q, inconclusive, deltas)
