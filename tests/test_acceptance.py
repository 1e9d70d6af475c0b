"""Acceptance gate: one test per shipped guarantee, desk scale.

Every test prints a single [acceptance NN] PASS line when it holds (visible
under pytest -s); pytest -v adds the usual one-line verdict per criterion.
All grids stay at or below 2^16 nodes and each item runs in well under a
minute.
"""
import json
import math

import numpy as np
import pytest

from latticebands import (
    GridSpec,
    CounterexampleSpec,
    assemble_spectrum,
    build_dimer,
    build_vq,
    certified_edges,
    coincident_group,
    count_moves,
    eigenvalues_sorted_desc,
    estimate_cq,
    free_gradient,
    free_level,
    interior_witness,
    minimal_period,
    neighbor_sum_check,
    period,
    phase,
    predict_moves,
    random_potential,
    second_order_coeff,
    verify_gap_at_zero,
    zero_potential,
)
from latticebands.cli import main

from conftest import random_periods, ref_levels


def run_cli_json(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_01_free_spectrum_is_one_full_interval(capsys):
    for q_str, d in [("2,2", 2), ("2,3", 2), ("3,3", 2), ("2,2,2", 3)]:
        rc, report = run_cli_json(capsys, "spectrum", "--q", q_str, "--json")
        assert rc == 0
        assert len(report["intervals"]) == 1
        lo = report["intervals"][0]["lo"]
        hi = report["intervals"][0]["hi"]
        assert abs(lo + 2 * d) <= 1e-6
        assert abs(hi - 2 * d) <= 1e-6
    print("[acceptance 01] PASS free spectrum = [-2d, 2d] for all four period vectors")


def test_02_fiber_spectrum_matches_closed_form():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        q_tuple = random_periods(rng, cell_max=36)
        q = period(q_tuple)
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=q.d)))
        vals = eigenvalues_sorted_desc(q, zero_potential(q), th)
        ref = ref_levels(q_tuple, th)
        worst = max(worst, float(np.max(np.abs(vals - ref))))
    assert worst <= 1e-9
    print(f"[acceptance 02] PASS closed-form equivalence, worst deviation {worst:.2e}")


def test_03_interior_witness_for_generic_energies():
    rng = np.random.default_rng(303)
    q = period((2, 3))
    margins = []
    while len(margins) < 50:
        E = float(rng.uniform(-4, 4))
        if abs(E) < 1e-3:
            continue
        res = interior_witness(q, E, GridSpec((64, 64)))
        assert res.margin > 0.0, f"no interior witness at E={E}"
        margins.append(res.margin)
    print(f"[acceptance 03] PASS 50 interior witnesses, smallest margin {min(margins):.4f}")


def test_04_zero_energy_dichotomy():
    mixed = interior_witness(period((2, 3)), 0.0, GridSpec((64, 64)))
    assert not mixed.touching_at_zero
    assert mixed.margin > 0.0

    q = period((2, 2))
    even = interior_witness(q, 0.0, GridSpec((64, 64)))
    assert even.touching_at_zero
    table = certified_edges(q, zero_potential(q), GridSpec((64, 64)))
    middle = table.overlaps[q.Q // 2 - 1]
    assert abs(middle) <= 2 * table.slack
    print(
        "[acceptance 04] PASS mixed periods hold 0 interior "
        f"(margin {mixed.margin:.3f}); even periods touch at 0 "
        f"(middle overlap {middle:.1e})"
    )


def test_05_counterexample_opens_a_certified_gap():
    q = period((2, 2))
    spec = CounterexampleSpec(q, 0.1)
    V = build_vq(spec)
    assert minimal_period(V) == (2, 2)
    check = neighbor_sum_check(V, spec.delta)
    assert check.ok and check.failures == ()

    grid = GridSpec((256, 256))
    table = certified_edges(q, V, grid)
    report = assemble_spectrum(table)
    assert len(report.intervals) == 2
    assert report.certified
    gap = report.gaps[0]
    assert gap.lo <= 0.0 <= gap.hi
    assert gap.width / 2.0 >= 0.05

    gap_check = verify_gap_at_zero(spec, grid)
    assert gap_check.passes and not gap_check.inconclusive
    assert gap_check.certified_margin > spec.delta / 2.0
    print(
        "[acceptance 05] PASS gap-opening potential: two certified intervals, "
        f"gap half-width {gap.width / 2.0:.4f} >= 0.05"
    )


def test_06_dimer_spectrum_matches_anticommutation_oracle():
    q = period((2, 2))
    delta = 0.5
    table = certified_edges(q, build_dimer(q, delta), GridSpec((256, 256)))
    report = assemble_spectrum(table)
    assert len(report.intervals) == 2
    hi = math.sqrt(16.25)
    neg, pos = report.intervals
    assert abs(neg.lo + hi) <= 1e-6
    assert abs(neg.hi + delta) <= 1e-6
    assert abs(pos.lo - delta) <= 1e-6
    assert abs(pos.hi - hi) <= 1e-6
    print("[acceptance 06] PASS dimer endpoints match +-0.5 and +-sqrt(16.25)")


def _interval_count(q, V, grid):
    table = certified_edges(q, V, grid)
    return len(assemble_spectrum(table).intervals)


def test_07_small_potentials_cannot_open_new_gaps():
    grid = GridSpec((128, 128))

    q = period((2, 3))
    est = estimate_cq(q, grid)
    assert not est.inconclusive
    amp = est.c_q / 2.0
    for seed in range(20):
        V = random_potential(q, amp, seed=seed)
        assert _interval_count(q, V, grid) == 1

    q_even = period((2, 2))
    est_even = estimate_cq(q_even, grid)
    assert not est_even.inconclusive
    amp_even = est_even.c_q / 2.0
    counts = []
    for seed in range(20):
        V = random_potential(q_even, amp_even, seed=seed)
        counts.append(_interval_count(q_even, V, grid))
    assert all(c <= 2 for c in counts)
    print(
        f"[acceptance 07] PASS 20 potentials at {amp:.3f} keep (2,3) gapless; "
        f"20 at {amp_even:.3f} leave (2,2) with at most two intervals"
    )


def test_08_overlaps_shrink_at_most_weyl_plus_slack():
    grid = GridSpec((128, 128))
    worst = math.inf
    for q_tuple in [(2, 3), (2, 2)]:
        q = period(q_tuple)
        est = estimate_cq(q, grid)
        amp = est.c_q / 2.0
        free_table = certified_edges(q, zero_potential(q), grid)
        free_overlaps = free_table.overlaps
        slack = 2.0 * math.pi / (q.q[0] * grid.m[0]) + 2.0 * math.pi / (q.q[1] * grid.m[1])
        for seed in range(20):
            V = random_potential(q, amp, seed=seed)
            table = certified_edges(q, V, grid)
            for got, free in zip(table.overlaps, free_overlaps):
                bound = free - 2.0 * V.sup_norm - 2.0 * slack
                worst = min(worst, got - bound)
                assert got >= bound
    print(f"[acceptance 08] PASS overlap lower bound holds, tightest headroom {worst:.4f}")


def test_09_perturb_and_count_at_the_critical_configuration():
    q = period((3, 2))
    g = coincident_group(q, phase(q, (1.0 / 6.0, 0.0)), (1, 0))
    beta_up = (1.0, 0.0)
    beta_down = (0.0, 1.0)
    for t in (1e-3, -1e-3, 1e-4, -1e-4):
        sign = 1 if t > 0 else -1
        for beta in (beta_up, beta_down):
            want = predict_moves(q, g, beta, sign)
            got = count_moves(q, g, beta, t)
            assert got.conclusive
            assert (got.n_up, got.n_down) == want
    up_plus = count_moves(q, g, beta_up, 1e-3).n_up
    up_minus = count_moves(q, g, beta_down, 1e-3).n_up
    assert up_plus - up_minus == 1
    print(
        "[acceptance 09] PASS perturb-and-count matches prediction; "
        f"up-count difference {up_plus} - {up_minus} = 1"
    )


def test_10_derivative_checks():
    rng = np.random.default_rng(1010)
    q = period((2, 3))
    h = 1e-6
    worst_grad = 0.0
    for _ in range(100):
        th = tuple(float(x) for x in rng.uniform(0, 1, size=2))
        l = (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
        grad = free_gradient(q, th, l)
        for i in range(2):
            up = list(th)
            dn = list(th)
            up[i] += h
            dn[i] -= h
            fd = (free_level(q, up, l) - free_level(q, dn, l)) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[i] - fd))
    assert worst_grad <= 1e-6

    t = 1e-4
    worst_curv = 0.0
    for _ in range(100):
        th = np.asarray(rng.uniform(0, 1, size=2))
        l = (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        S = second_order_coeff(q, th, l, b)
        quot = (
            free_level(q, th + t * b, l)
            + free_level(q, th - t * b, l)
            - 2 * free_level(q, th, l)
        ) / (t * t)
        worst_curv = max(worst_curv, abs(quot - S))
    assert worst_curv <= 1e-4
    print(
        f"[acceptance 10] PASS gradient error {worst_grad:.2e} <= 1e-6, "
        f"curvature error {worst_curv:.2e} <= 1e-4"
    )


def test_11_reports_are_byte_deterministic(capsys):
    args = [
        "spectrum", "--q", "2,3", "--grid", "64,64", "--json",
        "--potential", "random", "--delta", "0.2", "--seed", "11",
    ]
    raw = {}
    for workers in ("1", "1b", "8", "8b"):
        rc = main(args + ["--workers", workers.rstrip("b")])
        raw[workers] = capsys.readouterr().out
        assert rc == 0
    # identical configs are byte-identical, serial and maximally parallel alike
    assert raw["1"] == raw["1b"]
    assert raw["8"] == raw["8b"]
    # and the computed payload does not depend on the worker count at all
    # (only the echoed config field differs)
    a = json.loads(raw["1"])
    b = json.loads(raw["8"])
    a.pop("workers")
    b.pop("workers")
    assert a == b
    print("[acceptance 11] PASS byte-identical reports across runs and worker counts")
