import math
import re

import numpy as np
import pytest

from latticebands import DomainError, free_level, period, phase
from latticebands.lattice import (
    check_index,
    check_phase,
    check_phases,
    enumerate_lambda,
    is_integer,
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
    # PeriodVector reads the values once, so a non-iterable gets the message
    # of any other non-integer periods
    with pytest.raises(DomainError, match=f"^{re.escape(f'periods must be integers, got {values!r}')}$"):
        period(values)


def test_enumerate_lambda_row_major():
    q = period((2, 3))
    ls = list(enumerate_lambda(q))
    assert ls == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


@pytest.mark.parametrize("q_tuple", [(1, 1), (2, 3), (3, 1, 2), (np.int64(2), np.int32(2))])
def test_enumerate_lambda_equals_checked_offsets(q_tuple):
    # the offsets skip check_index; they must be the same values, of the
    # same types, in the same order as checked ones
    q = period(q_tuple)
    got = enumerate_lambda(q)
    want = tuple(check_index(q, l) for l in np.ndindex(*q.q))
    assert got == want
    assert all(type(m) is tuple and all(type(x) is int for x in m) for m in got)
    assert len({hash(m) for m in got}) == q.Q


def test_phase_wraps_onto_reduced_torus(rng):
    q = period((2, 3))
    for _ in range(500):
        raw = tuple(float(x) for x in rng.uniform(-3, 3, size=2))
        th = phase(q, raw)
        for v, qi in zip(th, q.q):
            assert 0.0 <= v < 1.0 / qi
    # wrapping by exactly one reduced period is a no-op
    th = phase(q, (0.1 + 0.5, 0.2 + 1.0 / 3.0))
    assert th[0] == pytest.approx(0.1, abs=1e-15)
    assert th[1] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_phase_rejects_non_finite_coordinates(x):
    with pytest.raises(DomainError, match="finite"):
        phase(period((3, 2)), (x, 0.0))


# a Fourier index (frequency offset) is a tuple of ints, read by check_index
# wherever an offset enters, the closed-form levels included
@pytest.mark.parametrize("l", [(0.5, 0), (1, math.nan), (math.inf, 1), ("1", 0), None])
def test_fourier_index_rejects_non_integral_offsets(l):
    q = period((2, 3))
    for read in (lambda: check_index(q, l), lambda: free_level(q, (0.1, 0.0), l)):
        with pytest.raises(DomainError, match="frequency offsets must be integers"):
            read()


def test_fourier_index_accepts_integral_values():
    q = period((2, 3))
    l = check_index(q, (np.int64(1), np.int32(2)))
    assert l == (1, 2) and all(type(x) is int for x in l)
    assert check_index(q, iter([0, 1])) == (0, 1)
    assert free_level(q, (0.1, 0.0), (np.int64(1), np.int32(2))) == free_level(q, (0.1, 0.0), (1, 2))
    assert free_level(q, (0.1, 0.0), iter([0, 1])) == free_level(q, (0.1, 0.0), (0, 1))
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        check_index(q, (1.0, 0))
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        free_level(q, (0.1, 0.0), (1.0, 0))


@pytest.mark.parametrize("make,message", [
    (lambda: period((True, 2)), "periods must be integers"),
    (lambda: period((2.0, 3)), "periods must be integers"),
    (lambda: check_index(period((2, 2)), (False, 1)), "frequency offsets must be integers"),
], ids=["period-bool", "period-float", "offset-bool"])
def test_bools_and_integral_floats_are_not_integers(make, message):
    # each was read as an integer: periods (True, 2) as (1, 2)
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


class _Sub(np.ndarray):
    pass


_BAD_SHAPE = "phase must be a d-vector or an (n, d) stack of them, got shape "


def _asarray_message(value) -> str:
    try:
        np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        return f"phase must be a d-vector or an (n, d) stack of them: {exc}"
    raise AssertionError(f"{value!r} converts")


_RAGGED = [[0.0, 0.0], [0.1]]
_NONCONTIGUOUS = np.arange(12.0).reshape(3, 4)[:, ::2] / 10


# (input, expected coordinates or the DomainError text, expected single
# flag): float64 (n, d) ndarrays take the fast path, the rest are converted
_CHECK_PHASES = [
    ("f64-stack", np.array([[0.1, 0.2], [-0.0, 3.5]]), [[0.1, 0.2], [-0.0, 3.5]], False),
    ("f64-empty", np.empty((0, 2)), np.empty((0, 2)), False),
    ("f64-one-row", np.array([[0.25, 1e300]]), [[0.25, 1e300]], False),
    ("f64-noncontiguous", _NONCONTIGUOUS, [[0.0, 0.2], [0.4, 0.6], [0.8, 1.0]], False),
    ("f64-fortran", np.asfortranarray([[0.1, 0.2], [0.3, 0.4]]), [[0.1, 0.2], [0.3, 0.4]], False),
    ("f64-subclass", np.array([[0.1, 0.2]]).view(_Sub), [[0.1, 0.2]], False),
    ("f64-big-endian", np.array([[0.1, 0.2]], dtype=">f8"), [[0.1, 0.2]], False),
    ("f32-stack", np.array([[0.1, 0.2]], dtype=np.float32), [[float(np.float32(0.1)), float(np.float32(0.2))]], False),
    ("int-stack", np.array([[1, 2], [3, 4]]), [[1.0, 2.0], [3.0, 4.0]], False),
    ("bool-stack", np.array([[True, False]]), [[1.0, 0.0]], False),
    ("f64-vector", np.array([0.1, 0.2]), [[0.1, 0.2]], True),
    ("list-stack", [[0.1, 0.2], [0.3, 0.4]], [[0.1, 0.2], [0.3, 0.4]], False),
    ("tuple", (0.1, -0.0), [[0.1, -0.0]], True),
    ("mixed-tuple", (1, np.float64(0.5)), [[1.0, 0.5]], True),
    ("phase", (0.1, 0.2), [[0.1, 0.2]], True),
    ("list-of-phases", [(0.1, 0.2), [0.3, 0.4]], [[0.1, 0.2], [0.3, 0.4]], False),
    ("f64-nan-row", np.array([[0.1, 0.2], [0.1, math.nan]]), "phase coordinates must be finite, got [0.1, nan]", None),
    ("f64-inf-rows", np.array([[0.0, 0.0], [math.inf, 1.0], [-math.inf, 0.0]]), "phase coordinates must be finite, got [inf, 1.0]", None),
    ("noncontiguous-nan", np.array([[0.1, 9.0, math.nan], [0.2, 9.0, 0.3]])[:, ::2], "phase coordinates must be finite, got [0.1, nan]", None),
    ("list-inf", [[0.0, 0.0], [0.2, -math.inf]], "phase coordinates must be finite, got [0.2, -inf]", None),
    ("tuple-nan", (math.nan, 0.0), "phase coordinates must be finite, got [nan, 0.0]", None),
    ("phase-inf", (0.1, math.inf), "phase coordinates must be finite, got [0.1, inf]", None),
    ("f64-wrong-d", np.zeros((2, 3)), "phase has 3 coordinates, expected 2", None),
    ("f64-one-column", np.zeros((4, 1)), "phase has 1 coordinates, expected 2", None),
    ("f64-wrong-d-nan", np.full((1, 3), math.nan), "phase has 3 coordinates, expected 2", None),
    ("vector-wrong-d", (0.1, 0.2, 0.3), "phase has 3 coordinates, expected 2", None),
    ("f64-3d", np.zeros((1, 1, 2)), _BAD_SHAPE + "(1, 1, 2)", None),
    ("list-3d", [[[0.0, 0.0]]], _BAD_SHAPE + "(1, 1, 2)", None),
    ("f64-0d", np.float64(0.1), _BAD_SHAPE + "()", None),
    ("int-0d", 3, _BAD_SHAPE + "()", None),
    ("ragged", _RAGGED, _asarray_message(_RAGGED), None),
    ("string", "0.1,0.2", _asarray_message("0.1,0.2"), None),
    ("none-entry", (None, 0.1), "phase coordinates must be finite, got [nan, 0.1]", None),
]


@pytest.mark.parametrize("theta,want,single", [c[1:] for c in _CHECK_PHASES], ids=[c[0] for c in _CHECK_PHASES])
def test_check_phases_accepts_and_rejects_as_a_table(theta, want, single):
    q = period((2, 3))
    if single is None:
        with pytest.raises(DomainError) as exc:
            check_phases(q, theta)
        assert str(exc.value) == want
        return
    th, got_single = check_phases(q, theta)
    want = np.asarray(want, dtype=float).reshape(-1, 2)
    assert type(th) is np.ndarray and th.dtype == np.float64 and th.dtype.isnative
    assert th.shape == want.shape and th.tobytes() == want.tobytes()  # -0.0 keeps its sign
    assert got_single is single


_CHECK_PHASE = [
    ("tuple", (0.1, 0.2), (0.1, 0.2)),
    ("tuple-signed-zero", (-0.0, 5.0), (-0.0, 5.0)),
    ("tuple-int", (1, 0.5), (1.0, 0.5)),
    ("tuple-bool", (True, 0.5), (1.0, 0.5)),
    ("tuple-np-float", (np.float64(0.1), 0.2), (0.1, 0.2)),
    ("tuple-float32", (np.float32(0.1), 0.2), (float(np.float32(0.1)), 0.2)),
    ("list", [0.1, 0.2], (0.1, 0.2)),
    ("array", np.array([0.1, 0.2]), (0.1, 0.2)),
    ("phase", (0.3, 0.4), (0.3, 0.4)),
    ("tuple-nan", (0.1, math.nan), "phase coordinates must be finite, got [0.1, nan]"),
    ("tuple-inf", (-math.inf, 0.0), "phase coordinates must be finite, got [-inf, 0.0]"),
    ("phase-nan", (math.nan, 0.0), "phase coordinates must be finite, got [nan, 0.0]"),
    ("tuple-short", (0.1,), "phase has 1 coordinates, expected 2"),
    ("tuple-long", (0.1, 0.2, 0.3), "phase has 3 coordinates, expected 2"),
    ("phase-long", (0.1, 0.2, 0.3), "phase has 3 coordinates, expected 2"),
    ("empty-tuple", (), "phase has 0 coordinates, expected 2"),
    ("stack", ((0.1, 0.2), (0.3, 0.4)), "expected one phase, got a stack of shape (2, 2)"),
    ("string-entry", ("0.1", 0.2), (0.1, 0.2)),
    ("bad-string", ("x", 0.2), _asarray_message(("x", 0.2))),
]


@pytest.mark.parametrize("theta,want", [c[1:] for c in _CHECK_PHASE], ids=[c[0] for c in _CHECK_PHASE])
def test_check_phase_accepts_and_rejects_as_a_table(theta, want):
    # one phase of Python floats takes the fast path; every other input,
    # and every rejection, goes through check_phases
    q = period((2, 3))
    if isinstance(want, str):
        with pytest.raises(DomainError) as exc:
            check_phase(q, theta)
        assert str(exc.value) == want
        return
    got = check_phase(q, theta)
    assert type(got) is tuple and all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
