import math

import numpy as np
import pytest

from latticebands import (
    DomainError,
    GridSpec,
    certified_edges,
    eigenvalues_sorted_desc,
    free_gradient,
    free_level,
    interior_witness,
    period,
    phase,
    second_order_coeff,
    zero_potential,
)

from latticebands.freebands import normalize_direction, unit_direction

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


def test_normalize_direction_divides_by_the_norm():
    # below 2^-511 the norm's squares underflow: 1e-300 gives norm 0 and
    # 1e-160 a norm 5.6e-6 too small, so those are rescaled by max |b_i| first
    tiny = [(1e-300, 0.0), (-1e-160, 1e-160), (5e-324, 0.0)]
    for beta in [(3.0, 4.0), (1.0, 1.0), (0.1, -0.7, 2.0), (1e-100, 0.0)] + tiny:
        b = np.asarray(beta)
        if beta in tiny:
            b = b / np.max(np.abs(b))
        got = normalize_direction(beta, len(beta))
        assert got.tobytes() == (b / float(np.linalg.norm(b))).tobytes()
        unit_direction(got, len(beta))  # accepted by the library's unit check
    for beta, message in [
        ((math.nan, 1.0), r"direction coordinates must be finite, got \[nan, 1.0\]"),
        ((0.0, 0.0), r"direction must have a finite nonzero norm, got \[0.0, 0.0\]"),
        ((1e308, 1e308), "direction must have a finite nonzero norm"),
        ((1.0, 0.0, 0.0), "direction has 3 coordinates, expected 2"),
    ]:
        with pytest.raises(DomainError, match=message):
            normalize_direction(beta, 2)


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
        # E's depth in the inner range: the sampled depth less the rounding
        margin = min(table.band_max(k) - E, E - table.band_min(k)) - table.rounding
        assert res.margin == margin
        if res.margin > 0:
            assert table.band_min(k) + table.rounding < E < table.band_max(k) - table.rounding


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
