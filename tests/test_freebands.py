import math

import numpy as np
import pytest

from latticebands import (
    DomainError,
    GridSpec,
    certified_edges,
    construct_theta_for_energy,
    eigenvalues_sorted_desc,
    free_gradient,
    free_level,
    interior_witness,
    period,
    phase,
    second_order_coeff,
    zero_potential,
)

from conftest import random_periods


def test_free_level_examples():
    q = period((2, 3))
    assert free_level(q, (0.0, 0.0), (0, 0)) == pytest.approx(4.0, abs=1e-15)
    assert free_level(q, (0.0, 0.0), (1, 0)) == pytest.approx(0.0, abs=1e-14)
    # 2 + 2 cos(2 pi / 3) = 2 - 1
    assert free_level(q, (0.0, 0.0), (0, 1)) == pytest.approx(1.0, abs=1e-14)


def test_free_level_periodic_in_full_circle(rng):
    q = period((3, 2))
    for _ in range(100):
        th = tuple(float(x) for x in rng.uniform(0, 1.0 / 3.0, size=2))
        l = (int(rng.integers(0, 3)), int(rng.integers(0, 2)))
        base = free_level(q, th, l)
        shifted = (th[0] + 1.0, th[1] - 1.0)
        assert free_level(q, shifted, l) == pytest.approx(base, abs=1e-12)


def test_free_levels_match_fiber_spectrum(rng):
    for _ in range(50):
        q = period(random_periods(rng))
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=q.d)))
        from latticebands import enumerate_lambda

        levels = sorted((free_level(q, th, m) for m in enumerate_lambda(q)), reverse=True)
        vals = eigenvalues_sorted_desc(q, zero_potential(q), th)
        np.testing.assert_allclose(vals, levels, atol=1e-9)


def test_gradient_against_central_difference(rng):
    q = period((2, 3))
    h = 1e-6
    for _ in range(200):
        th = tuple(float(x) for x in rng.uniform(0, 1, size=2))
        l = (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
        grad = free_gradient(q, th, l)
        for i in range(2):
            up = list(th)
            dn = list(th)
            up[i] += h
            dn[i] -= h
            fd = (free_level(q, up, l) - free_level(q, dn, l)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_second_order_coeff_against_second_difference(rng):
    # f(theta + t b) + f(theta - t b) - 2 f(theta) tracks S t^2 to fourth order
    q = period((2, 3))
    t = 1e-3
    for _ in range(200):
        th = np.asarray(rng.uniform(0, 1, size=2))
        l = (int(rng.integers(0, 2)), int(rng.integers(0, 3)))
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        S = second_order_coeff(q, th, l, b)
        diff = (
            free_level(q, th + t * b, l)
            + free_level(q, th - t * b, l)
            - 2 * free_level(q, th, l)
        )
        assert abs(diff - S * t * t) <= 1e-4


def test_second_order_quotient_tight_at_small_step(rng):
    q = period((3, 2))
    t = 1e-4
    for _ in range(100):
        th = np.asarray(rng.uniform(0, 1, size=2))
        l = (int(rng.integers(0, 3)), int(rng.integers(0, 2)))
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        S = second_order_coeff(q, th, l, b)
        quot = (
            free_level(q, th + t * b, l)
            + free_level(q, th - t * b, l)
            - 2 * free_level(q, th, l)
        ) / (t * t)
        assert quot == pytest.approx(S, abs=1e-4)


def test_direction_must_be_unit():
    q = period((2, 2))
    with pytest.raises(DomainError):
        second_order_coeff(q, (0.0, 0.0), (0, 0), (1.0, 1.0))
    with pytest.raises(DomainError):
        second_order_coeff(q, (0.0, 0.0), (0, 0), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("beta", [(math.nan, 1.0), (math.nan, 0.0), (math.inf, 1.0)])
def test_direction_must_be_finite(beta):
    # abs(nan - 1) > tol is False, so a NaN direction passed the norm check
    with pytest.raises(DomainError, match="finite"):
        second_order_coeff(period((2, 2)), (0.0, 0.0), (0, 0), beta)


def test_construct_theta_frozen_examples():
    np.testing.assert_allclose(construct_theta_for_energy(2, 0.0), [0.25, 0.75], atol=1e-15)
    np.testing.assert_allclose(construct_theta_for_energy(2, 2.0), [1 / 6, 5 / 6], atol=1e-12)
    x = construct_theta_for_energy(3, 1.0)
    # two paired coordinates with cosine 3/4 and one parked at half period
    assert math.cos(2 * math.pi * x[0]) == pytest.approx(0.75, abs=1e-12)
    assert x[2] == 0.5


def test_construct_theta_postconditions(rng):
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        E = float(rng.uniform(-2 * d + 1e-3, 2 * d - 1e-3))
        x = construct_theta_for_energy(d, E)
        assert x.shape == (d,)
        assert np.all((0.0 <= x) & (x < 1.0))
        cos_sum = sum(2.0 * math.cos(2 * math.pi * xi) for xi in x)
        sin_sum = sum(math.sin(2 * math.pi * xi) for xi in x)
        sin_sq = sum(math.sin(2 * math.pi * xi) ** 2 for xi in x)
        assert cos_sum == pytest.approx(E, abs=1e-9)
        assert sin_sum == pytest.approx(0.0, abs=1e-9)
        assert sin_sq > 0.0


def test_construct_theta_negation_shift():
    for E in (0.5, 1.7, 3.2):
        pos = construct_theta_for_energy(2, E)
        neg = construct_theta_for_energy(2, -E)
        np.testing.assert_allclose(neg, (pos + 0.5) % 1.0, atol=1e-15)


def test_construct_theta_domain():
    with pytest.raises(DomainError):
        construct_theta_for_energy(1, 0.0)
    with pytest.raises(DomainError):
        construct_theta_for_energy(2, 4.0)
    with pytest.raises(DomainError):
        construct_theta_for_energy(2, -4.0)


def test_interior_witness_center_of_spectrum():
    q = period((2, 3))
    res = interior_witness(q, 0.0, GridSpec((64, 64)))
    assert not res.touching_at_zero
    assert res.margin == pytest.approx(1.0, abs=1e-6)


def test_interior_witness_near_band_edge():
    q = period((2, 3))
    res = interior_witness(q, 3.9, GridSpec((64, 64)))
    assert res.band_index == 1
    assert res.margin == pytest.approx(0.1, abs=1e-6)


def test_interior_witness_margin_is_consistent():
    q = period((2, 3))
    grid = GridSpec((24, 24))
    table = certified_edges(q, zero_potential(q), grid)
    for E in (-3.5, -1.0, 0.25, 2.2):
        res = interior_witness(q, E, grid)
        k = res.band_index
        margin = min(table.band_max(k) - E, E - table.band_min(k))
        assert res.margin == pytest.approx(margin, abs=0.0)
        if res.margin > 0:
            assert table.band_min(k) < E < table.band_max(k)


def test_interior_witness_touching_at_zero():
    q = period((2, 2))
    res = interior_witness(q, 0.0, GridSpec((64, 64)))
    assert res.touching_at_zero
    assert res.band_index == 2
    assert res.margin == 0.0


def test_interior_witness_energy_domain():
    q = period((2, 2))
    with pytest.raises(DomainError):
        interior_witness(q, 4.0, GridSpec((64, 64)))
    with pytest.raises(DomainError):
        interior_witness(q, -8.0, GridSpec((64, 64)))


@pytest.mark.parametrize("theta", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_free_level_rejects_a_non_finite_phase(theta):
    # free_level returned nan for a NaN coordinate
    with pytest.raises(DomainError, match="phase coordinates must be finite"):
        free_level(period((2, 3)), theta, (0, 0))


@pytest.mark.parametrize("l", [(0.7, 0), (0, 1.5), (math.nan, 0), (math.inf, 0), ("1", 0)])
def test_free_level_rejects_a_non_integral_offset(l):
    # free_level(q, (0.1, 0), (0.7, 0)) used the offset (0, 0)
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        free_level(period((2, 3)), (0.1, 0.0), l)


def test_free_level_phase_dimension_is_checked():
    with pytest.raises(DomainError, match="phase has 3 coordinates, expected 2"):
        free_level(period((2, 3)), (0.1, 0.0, 0.0), (0, 0))
