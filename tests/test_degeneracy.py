import math

import numpy as np
import pytest

from latticebands import (
    DegenerateBeyondSecondOrder,
    DomainError,
    classify,
    coincident_group,
    count_moves,
    free_gradient,
    free_level,
    period,
    phase,
    predict_moves,
)

SQ2 = math.sqrt(2.0)


def test_group_all_levels_collapse():
    # at theta = (1/4, 1/4) every full-circle coordinate has zero cosine
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    assert g.level == pytest.approx(0.0, abs=1e-15)
    assert g.r == 4
    assert g.position_offset == 0
    assert [m.l for m in g.members] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_group_critical_configuration():
    # levels at theta = (1/6, 0) for q = (3, 2): 3, 3, 0, -1, -1, -4
    q = period((3, 2))
    th = phase(q, (1.0 / 6.0, 0.0))
    g = coincident_group(q, th, (1, 0))
    assert g.level == pytest.approx(0.0, abs=1e-15)
    assert g.r == 1
    assert g.position_offset == 2
    assert g.members[0].l == (1, 0)

    top = coincident_group(q, th, (0, 0))
    assert top.level == pytest.approx(3.0, abs=1e-12)
    assert top.r == 2
    assert top.position_offset == 0
    assert [m.l for m in top.members] == [(0, 0), (2, 0)]

    low = coincident_group(q, th, (0, 1))
    assert low.level == pytest.approx(-1.0, abs=1e-12)
    assert low.r == 2
    assert low.position_offset == 3


def test_exact_grouping_vs_nearby_irrational_phase():
    # the coincidence at the rational phase is an algebraic identity; moving
    # the phase by 1e-7 separates the pair by about 1e-6, beyond the tolerance
    q = period((3, 2))
    exact = coincident_group(q, phase(q, (1.0 / 6.0, 0.0)), (0, 0))
    assert exact.r == 2
    nearby = coincident_group(q, phase(q, (1.0 / 6.0 + 1e-7, 0.0)), (0, 0))
    assert nearby.r == 1


def test_group_positions_match_sorted_levels():
    q = period((3, 2))
    th = phase(q, (1.0 / 6.0, 0.0))
    for target in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        g = coincident_group(q, th, target)
        # recompute all six levels and locate the group by value
        all_levels = sorted(
            (
                free_level(q, th, (l1, l2))
                for l1 in range(3)
                for l2 in range(2)
            ),
            reverse=True,
        )
        above = sum(1 for lv in all_levels if lv > g.level + 1e-9)
        assert g.position_offset == above
        for pos in range(g.position_offset, g.position_offset + g.r):
            assert all_levels[pos] == pytest.approx(g.level, abs=1e-9)


def test_group_validates_target():
    q = period((2, 2))
    with pytest.raises(DomainError):
        coincident_group(q, phase(q, (0.0, 0.0)), (2, 0))
    with pytest.raises(DomainError):
        coincident_group(q, phase(q, (0.0, 0.0)), (0,))


def test_classification_partitions_group():
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    cls = classify(q, g, (1.0, 0.0))
    assert cls.total == g.r
    assert (cls.j_plus, cls.j_minus, cls.j_zero, cls.j_orth) == (2, 2, 0, 0)
    assert cls.labels == ("minus", "minus", "plus", "plus")

    diag = classify(q, g, (1.0 / SQ2, 1.0 / SQ2))
    assert diag.total == g.r
    assert (diag.j_plus, diag.j_minus, diag.j_orth) == (1, 1, 2)
    assert diag.labels == ("minus", "orth", "orth", "plus")


def test_classification_flips_with_direction():
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    fwd = classify(q, g, (1.0, 0.0))
    bwd = classify(q, g, (-1.0, 0.0))
    assert fwd.j_plus == bwd.j_minus
    assert fwd.j_minus == bwd.j_plus
    assert fwd.j_zero == bwd.j_zero
    assert fwd.j_orth == bwd.j_orth


def test_classify_zero_gradient_member():
    q = period((3, 2))
    g = coincident_group(q, phase(q, (1.0 / 6.0, 0.0)), (1, 0))
    grad = free_gradient(q, g.theta, (1, 0))
    assert np.linalg.norm(grad) < 1e-14
    for beta in [(1.0, 0.0), (0.0, 1.0), (1.0 / SQ2, -1.0 / SQ2)]:
        assert classify(q, g, beta).labels == ("zero",)


def test_predict_zero_member_moves_with_curvature():
    # at the critical configuration the lone zero-gradient member moves up
    # along the first axis and down along the second, for either step sign
    q = period((3, 2))
    g = coincident_group(q, phase(q, (1.0 / 6.0, 0.0)), (1, 0))
    for sign in (1, -1):
        assert predict_moves(q, g, (1.0, 0.0), sign) == (1, 0)
        assert predict_moves(q, g, (0.0, 1.0), sign) == (0, 1)


def test_count_matches_prediction_at_critical_configuration():
    q = period((3, 2))
    g = coincident_group(q, phase(q, (1.0 / 6.0, 0.0)), (1, 0))
    for t in (1e-3, -1e-3):
        up = count_moves(q, g, (1.0, 0.0), t)
        assert up.conclusive and (up.n_up, up.n_down) == (1, 0)
        down = count_moves(q, g, (0.0, 1.0), t)
        assert down.conclusive and (down.n_up, down.n_down) == (0, 1)


def test_count_matches_prediction_mixed_group():
    # the level-3 pair at the critical configuration splits one up, one down
    # along the first axis, and moves down as a whole along the second
    q = period((3, 2))
    g = coincident_group(q, phase(q, (1.0 / 6.0, 0.0)), (0, 0))
    cls = classify(q, g, (1.0, 0.0))
    assert (cls.j_plus, cls.j_minus) == (1, 1)
    assert predict_moves(q, g, (1.0, 0.0), 1, cls) == (1, 1)
    got = count_moves(q, g, (1.0, 0.0), 1e-3)
    assert got.conclusive and (got.n_up, got.n_down) == (1, 1)

    assert predict_moves(q, g, (0.0, 1.0), 1) == (0, 2)
    got = count_moves(q, g, (0.0, 1.0), 1e-3)
    assert got.conclusive and (got.n_up, got.n_down) == (0, 2)


def test_first_order_members_follow_step_sign():
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    cls = classify(q, g, (1.0, 0.0))
    assert predict_moves(q, g, (1.0, 0.0), 1, cls) == (2, 2)
    assert predict_moves(q, g, (1.0, 0.0), -1, cls) == (2, 2)
    for t in (5e-3, -5e-3):
        got = count_moves(q, g, (1.0, 0.0), t)
        assert got.conclusive and (got.n_up, got.n_down) == (2, 2)


def test_degenerate_beyond_second_order_raises():
    # along the diagonal at theta = (1/4, 1/4) the orthogonal members have
    # zero curvature as well: their level is constant on that line
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    with pytest.raises(DegenerateBeyondSecondOrder):
        predict_moves(q, g, (1.0 / SQ2, 1.0 / SQ2), 1)


def test_flat_members_are_ambiguous_at_finite_step():
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    got = count_moves(q, g, (1.0 / SQ2, 1.0 / SQ2), 1e-3)
    assert not got.conclusive
    assert (got.n_up, got.n_down) == (1, 1)
    assert [m.l for m in got.ambiguous] == [(0, 1), (1, 0)]


def test_count_moves_validates_input():
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    with pytest.raises(DomainError):
        count_moves(q, g, (1.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        count_moves(q, g, (1.0, 0.0), 0.5)
    with pytest.raises(DomainError):
        count_moves(q, g, (2.0, 0.0), 1e-3)
    with pytest.raises(DomainError):
        predict_moves(q, g, (1.0, 0.0), 0)


def test_prediction_agrees_with_count_randomized(rng):
    # generic phases give singleton groups with a nonzero slope; prediction
    # and finite count must then agree for both step signs
    qs = [period((2, 2)), period((3, 2)), period((2, 3))]
    checked = 0
    for _ in range(300):
        q = qs[int(rng.integers(len(qs)))]
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=2)))
        target = tuple(int(rng.integers(0, qi)) for qi in q.q)
        g = coincident_group(q, th, target)
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        grad = free_gradient(q, th, target)
        slope = float(b @ grad)
        if g.r != 1 or abs(slope) < 1e-4:
            continue  # skip near-degenerate draws; they get their own tests
        for sign in (1, -1):
            want = predict_moves(q, g, b, sign)
            got = count_moves(q, g, b, sign * 1e-4)
            assert got.conclusive
            assert (got.n_up, got.n_down) == want
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("theta", [(math.nan, 0.0), (0.25, math.inf)])
def test_group_rejects_a_non_finite_phase(theta):
    # a NaN coordinate raised a bare ValueError from the rational test
    with pytest.raises(DomainError, match="phase coordinates must be finite"):
        coincident_group(period((2, 2)), theta, (0, 0))


def test_group_checks_phase_dimension_and_offset():
    q = period((2, 2))
    with pytest.raises(DomainError, match="phase has 3 coordinates, expected 2"):
        coincident_group(q, (0.25, 0.25, 0.0), (0, 0))
    with pytest.raises(DomainError, match="frequency offsets must be integers"):
        coincident_group(q, (0.25, 0.25), (0.5, 0))
