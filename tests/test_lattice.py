import math

import numpy as np
import pytest

from latticebands import DomainError, period, phase
from latticebands.lattice import FourierIndex, enumerate_lambda, is_integer, site_from_linear


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
        assert s.linear == a
        assert s.n == tuple(int(x) for x in np.unravel_index(a, q.q))


def test_site_bounds_checked():
    q = period((2, 3))
    with pytest.raises(DomainError):
        site_from_linear(q, 6)
    with pytest.raises(DomainError):
        site_from_linear(q, -1)


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


@pytest.mark.parametrize("l", [(0.5, 0), (1, math.nan), (math.inf, 1), ("1", 0), None])
def test_fourier_index_rejects_non_integral_offsets(l):
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        FourierIndex(l)


def test_fourier_index_accepts_integral_values():
    l = FourierIndex((np.int64(1), np.int32(2))).l
    assert l == (1, 2) and all(type(x) is int for x in l)
    assert FourierIndex(iter([0, 1])).l == (0, 1)
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        FourierIndex((1.0, 0))


@pytest.mark.parametrize("make,message", [
    (lambda: period((True, 2)), "periods must be integers"),
    (lambda: period((2.0, 3)), "periods must be integers"),
    (lambda: FourierIndex((False, 1)), "frequency offsets must be integers"),
    (lambda: site_from_linear(period((2, 3)), 1.0), "linear index must be an integer"),
    (lambda: site_from_linear(period((2, 3)), True), "linear index must be an integer"),
    (lambda: site_from_linear(period((2, 3)), 2.7), "linear index must be an integer"),
], ids=["period-bool", "period-float", "offset-bool", "site-float", "site-bool", "linear-float"])
def test_bools_and_integral_floats_are_not_integers(make, message):
    # each was read as an integer: periods (True, 2) as (1, 2), linear index 2.7 as 2
    with pytest.raises(DomainError, match=message):
        make()


def test_is_integer_accepts_python_and_numpy_integers_only():
    class Sub(int):
        pass

    for x in (0, -3, 2**80, Sub(2), np.int64(1), np.int32(-2), np.uint8(3)):
        assert is_integer(x), x
    for x in (True, False, np.True_, np.bool_(False), 2.0, np.float64(2), 1 + 0j, "2", None, np.array(2)):
        assert not is_integer(x), x


@pytest.mark.parametrize("q", [(2, math.inf), (2, math.nan)])
def test_period_rejects_non_finite_periods(q):
    # an infinite period raised a bare OverflowError
    with pytest.raises(DomainError, match="periods must be integers"):
        period(q)
