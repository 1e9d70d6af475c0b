import itertools
import math

import numpy as np
import pytest

from latticebands import DomainError, fold_phase, period, phase, torus_distance
from latticebands.lattice import (
    FourierIndex,
    enumerate_lambda,
    fold_coordinate,
    site_from_coords,
    site_from_linear,
)


def test_period_vector_basics():
    q = period((2, 3))
    assert q.d == 2
    assert q.Q == 6
    assert not q.all_even
    assert period((2, 4, 2)).all_even


def test_period_vector_rejects_bad_input():
    with pytest.raises(DomainError):
        period((3,))  # one direction is not enough
    with pytest.raises(DomainError):
        period((2, 0))
    with pytest.raises(DomainError):
        period((2, -3))


@pytest.mark.parametrize("values", [5, None, 2.5])
def test_period_rejects_a_non_iterable(values):
    with pytest.raises(DomainError, match="iterable"):
        period(values)


def test_enumerate_lambda_row_major():
    q = period((2, 3))
    ls = [m.l for m in enumerate_lambda(q)]
    assert ls == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_site_roundtrip_exhaustive():
    q = period((2, 3, 2))
    for a in range(q.Q):
        s = site_from_linear(q, a)
        assert site_from_coords(q, s.n).linear == a
    # and the inverse direction
    for coords in itertools.product(range(2), range(3), range(2)):
        s = site_from_coords(q, coords)
        assert site_from_linear(q, s.linear).n == coords


def test_site_bounds_checked():
    q = period((2, 3))
    with pytest.raises(DomainError):
        site_from_coords(q, (2, 0))
    with pytest.raises(DomainError):
        site_from_linear(q, 6)
    with pytest.raises(DomainError):
        site_from_coords(q, (0, 0, 0))


def test_fold_coordinate_examples():
    # q_i = 3: x = 0.5 sits in the second sector, 0.5 = 1/6 + 1/3
    t, l = fold_coordinate(0.5, 3)
    assert l == 1
    assert t == pytest.approx(1.0 / 6.0, abs=1e-15)
    t, l = fold_coordinate(0.9, 3)
    assert l == 2
    assert t == pytest.approx(0.9 - 2.0 / 3.0, abs=1e-15)
    t, l = fold_coordinate(0.0, 5)
    assert (t, l) == (0.0, 0)


def test_fold_coordinate_rejects_out_of_range():
    with pytest.raises(DomainError):
        fold_coordinate(1.0, 2)
    with pytest.raises(DomainError):
        fold_coordinate(-0.1, 2)


def test_fold_coordinate_randomized_roundtrip(rng):
    for _ in range(2000):
        qi = int(rng.integers(1, 9))
        x = float(rng.random())
        t, l = fold_coordinate(x, qi)
        assert 0 <= l <= qi - 1
        assert 0.0 <= t < 1.0 / qi + 4e-16
        assert abs(t + l / qi - x) <= 4 * np.finfo(float).eps


def test_fold_phase_componentwise():
    q = period((3, 2))
    th, l = fold_phase(q, (0.5, 0.75))
    assert l.l == (1, 1)
    assert th.theta[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert th.theta[1] == pytest.approx(0.25, abs=1e-15)


def test_phase_wraps_onto_reduced_torus(rng):
    q = period((2, 3))
    for _ in range(500):
        raw = tuple(float(x) for x in rng.uniform(-3, 3, size=2))
        th = phase(q, raw)
        for v, qi in zip(th.theta, q.q):
            assert 0.0 <= v < 1.0 / qi
    # wrapping by exactly one reduced period is a no-op
    th = phase(q, (0.1 + 0.5, 0.2 + 1.0 / 3.0))
    assert th.theta[0] == pytest.approx(0.1, abs=1e-15)
    assert th.theta[1] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_phase_rejects_non_finite_coordinates(x):
    with pytest.raises(DomainError, match="finite"):
        phase(period((3, 2)), (x, 0.0))


def _brute_torus_distance(q, a, b):
    # minimize the plain Euclidean distance over shifts by multiples of 1/q_i
    best = math.inf
    shifts = [np.arange(-3, 4) / qi for qi in q]
    for offs in itertools.product(*shifts):
        dist = math.sqrt(
            sum((ai - bi + o) ** 2 for ai, bi, o in zip(a, b, offs))
        )
        best = min(best, dist)
    return best


def test_torus_distance_against_brute_force(rng):
    q = period((2, 3))
    for _ in range(300):
        a = tuple(float(x) for x in rng.uniform(0, 0.5, size=2))
        b = tuple(float(x) for x in rng.uniform(0, 0.5, size=2))
        got = torus_distance(q, phase(q, a), phase(q, b))
        want = _brute_torus_distance(q.q, phase(q, a).theta, phase(q, b).theta)
        assert got == pytest.approx(want, abs=1e-12)


def test_torus_distance_metric_properties(rng):
    q = period((3, 2, 2))
    pts = [phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=3))) for _ in range(12)]
    for a in pts:
        assert torus_distance(q, a, a) == 0.0
    for a, b in itertools.combinations(pts, 2):
        assert torus_distance(q, a, b) == pytest.approx(torus_distance(q, b, a), abs=1e-15)
    for a, b, c in itertools.permutations(pts[:6], 3):
        ab = torus_distance(q, a, b)
        bc = torus_distance(q, b, c)
        ac = torus_distance(q, a, c)
        assert ac <= ab + bc + 1e-12


@pytest.mark.parametrize("l", [(0.5, 0), (1, math.nan), (math.inf, 1), ("1", 0), None])
def test_fourier_index_rejects_non_integral_offsets(l):
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        FourierIndex(l)


def test_fourier_index_accepts_integral_values():
    assert FourierIndex((1.0, np.int64(2))).l == (1, 2)
    assert FourierIndex(iter([0, 1])).l == (0, 1)


@pytest.mark.parametrize("coords", [(0.5, 0), (0, math.nan)])
def test_site_from_coords_rejects_non_integral_coordinates(coords):
    # (0.5, 0) was read as site 0
    with pytest.raises(DomainError, match="site coordinates must be integers"):
        site_from_coords(period((2, 3)), coords)


@pytest.mark.parametrize("q", [(2, math.inf), (2, math.nan)])
def test_period_rejects_non_finite_periods(q):
    # an infinite period raised a bare OverflowError
    with pytest.raises(DomainError, match="periods must be integers"):
        period(q)


def test_torus_distance_checks_both_phases():
    q = period((2, 3))
    with pytest.raises(DomainError, match="phase has 3 coordinates, expected 2"):
        torus_distance(q, (0.1, 0.1), (0.1, 0.1, 0.1))
    with pytest.raises(DomainError, match="phase coordinates must be finite"):
        torus_distance(q, (0.1, 0.1), (0.1, math.nan))
