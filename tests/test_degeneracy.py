import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticebands import (
    ComputationError,
    DegenerateBeyondSecondOrder,
    DomainError,
    classify,
    coincident_group,
    count_moves,
    degeneracy,
    enumerate_lambda,
    free_gradient,
    free_level,
    period,
    phase,
    predict_moves,
    second_order_coeff,
)
from latticebands.lattice import check_index, check_phase

SQ2 = math.sqrt(2.0)


def test_group_all_levels_collapse():
    # at theta = (1/4, 1/4) every full-circle coordinate has zero cosine
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    assert g.level == 0.0  # exactly: the doubles sum to 2.4e-16
    assert g.r == 4
    assert g.position_offset == 0
    assert list(g.members) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_group_critical_configuration():
    # levels at theta = (1/6, 0) for q = (3, 2): 3, 3, 0, -1, -1, -4
    q = period((3, 2))
    th = phase(q, (1.0 / 6.0, 0.0))
    g = coincident_group(q, th, (1, 0))
    assert g.level == pytest.approx(0.0, abs=1e-15)
    assert g.r == 1
    assert g.position_offset == 2
    assert g.members[0] == (1, 0)

    top = coincident_group(q, th, (0, 0))
    assert top.level == pytest.approx(3.0, abs=1e-12)
    assert top.r == 2
    assert top.position_offset == 0
    assert list(top.members) == [(0, 0), (2, 0)]

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
    assert predict_moves(q, g, (1.0, 0.0), 1) == (1, 1)
    got = count_moves(q, g, (1.0, 0.0), 1e-3)
    assert got.conclusive and (got.n_up, got.n_down) == (1, 1)

    assert predict_moves(q, g, (0.0, 1.0), 1) == (0, 2)
    got = count_moves(q, g, (0.0, 1.0), 1e-3)
    assert got.conclusive and (got.n_up, got.n_down) == (0, 2)


def test_first_order_members_follow_step_sign():
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    assert predict_moves(q, g, (1.0, 0.0), 1) == (2, 2)
    assert predict_moves(q, g, (1.0, 0.0), -1) == (2, 2)
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
    assert list(got.ambiguous) == [(0, 1), (1, 0)]


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


@pytest.mark.parametrize("sign", [True, -1.0, 1.0, np.float64(1.0), "1"], ids=repr)
def test_predict_moves_rejects_a_sign_that_is_not_an_integer(sign):
    # True and 1.0 were read as +1 and gave (2, 2) on this group
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    with pytest.raises(DomainError, match="sign_of_t must be"):
        predict_moves(q, g, (1.0, 0.0), sign)
    assert predict_moves(q, g, (1.0, 0.0), np.int64(-1)) == (2, 2)


@pytest.mark.parametrize("t", ["0.001", True, b"0.001", 1e-3 + 0j, None], ids=repr)
def test_count_moves_rejects_a_step_that_is_not_real(t):
    # the string "0.001" was parsed by float() and counted
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.25, 0.25)), (0, 0))
    with pytest.raises(DomainError, match="step must be a real number"):
        count_moves(q, g, (1.0, 0.0), t)
    for real in (np.float32(1e-3), Fraction(1, 1000), np.float64(1e-3)):
        assert count_moves(q, g, (1.0, 0.0), real) == count_moves(q, g, (1.0, 0.0), 1e-3)


def test_predict_moves_rejects_a_classification_along_another_direction():
    # classify's labels along (1, 0), once passed in, were read as those
    # along (-1, 0) and gave (0, 1); predict_moves now classifies along the
    # direction it is given and takes no classification
    q = period((2, 2))
    g = coincident_group(q, phase(q, (0.1, 0.2)), (0, 0))
    beta = (-1.0, 0.0)
    assert predict_moves(q, g, beta, 1) == (1, 0)
    counted = count_moves(q, g, beta, 1e-3)
    assert (counted.n_up, counted.n_down) == (1, 0)
    with pytest.raises(TypeError):
        predict_moves(q, g, beta, 1, classify(q, g, (1.0, 0.0)))


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


@pytest.mark.parametrize("q", list(itertools.product(range(1, 7), repeat=2)), ids=str)
def test_exact_grouping_matches_double_reference_exhaustively(q):
    """Every target at every phase theta_i = k/(2 q_i), k < 2 q_i, on a 2-D
    cell with q_i <= 6, against levels in doubles compared at 1e-9.

    The reference is exact here.  With N = lcm(2 q_1, 2 q_2) <= 60 and
    zeta = exp(2 pi i / N), two distinct levels differ by a nonzero algebraic
    integer of the real cyclotomic field Q(zeta + 1/zeta), of degree
    phi(N)/2 <= 8.  Each of its conjugates is again a difference of two sums
    of d = 2 cosines, so at most 4d = 8 in size, and the product of all of
    them is a nonzero integer.  So the difference is at least 8^-7 = 4.8e-7
    in size, far above 1e-9 plus the rounding of a double level.
    """
    q = period(q)
    offsets = np.array(enumerate_lambda(q))
    for k in itertools.product(*[range(2 * qi) for qi in q.q]):
        th = tuple(ki / (2 * qi) for ki, qi in zip(k, q.q))
        full = np.array(th) + offsets / np.array(q.q)
        levels = (2.0 * np.cos(2.0 * np.pi * full)).sum(axis=1)
        for t, target in enumerate(offsets):
            g = coincident_group(q, th, tuple(target))
            near = np.abs(levels - levels[t]) <= 1e-9
            assert list(g.members) == [tuple(l) for l in offsets[near]]
            assert g.position_offset == np.count_nonzero(levels - levels[t] > 1e-9)
            assert abs(g.level - levels[t]) <= 1e-14
            if abs(levels[t]) <= 1e-9:  # exactly 0 by the bound above; its double
                # may be a few ulp off (2.4e-16 on 2,2 at (1/4, 1/4))
                assert g.level == 0.0 and math.copysign(1.0, g.level) == 1.0


def test_phase_above_the_cyclotomic_cap_groups_within_tolerance(monkeypatch):
    # theta = (1/171, 1/170) on a 6,6 cell snaps to fractions whose angle
    # denominators have lcm 29070 > MAX_CYCLOTOMIC_ORDER, so no residue table
    # is built and levels group within GROUP_TOL, as at an irrational phase
    q = period((6, 6))
    th = (1 / 171, 1 / 170)
    assert math.lcm(171, 170, 6) > degeneracy.MAX_CYCLOTOMIC_ORDER

    def refuse(n):
        raise AssertionError(f"built the residue table for N = {n}")

    monkeypatch.setattr(degeneracy, "_power_residues", refuse)
    levels = np.array([free_level(q, th, m) for m in enumerate_lambda(q)])
    for t, target in enumerate(enumerate_lambda(q)):
        g = coincident_group(q, th, target)
        near = np.abs(levels - levels[t]) <= degeneracy.GROUP_TOL
        assert list(g.members) == [m for m, n in zip(enumerate_lambda(q), near) if n]
        assert g.position_offset == np.count_nonzero(levels - levels[t] > degeneracy.GROUP_TOL)
        assert g.level == levels[t]


def test_levels_the_rounding_bound_cannot_order_raise(monkeypatch):
    # at theta = 0 on a 4,4 cell, level 0 of (0, 2) is 2 cos 0 + 2 cos pi and
    # that of (1, 1) is 2 cos(pi/2) twice; a residue table that tells these
    # sums apart leaves two unequal levels whose doubles agree, so their order
    # is unknown and the group raises, naming both offsets
    real = degeneracy._power_residues
    monkeypatch.setattr(degeneracy, "_power_residues", lambda n: real(n) + np.arange(n)[:, None])
    with pytest.raises(ComputationError, match=r"offsets \(0, 2\) and \(1, 1\)"):
        coincident_group(period((4, 4)), (0.0, 0.0), (0, 2))


# The closed form member by member, as a loop over offsets: the reference
# for the batched arrays that the package reads.

def _ref_angles(q, theta, l):
    th = check_phase(q, theta)
    lv = check_index(q, l)
    return [th[i] + lv[i] / q.q[i] for i in range(q.d)]


def _ref_level(q, theta, l):
    return sum(2.0 * math.cos(2.0 * math.pi * x) for x in _ref_angles(q, theta, l))


def _ref_gradient(q, theta, l):
    return np.array([-4.0 * math.pi * math.sin(2.0 * math.pi * x) for x in _ref_angles(q, theta, l)])


def _ref_curvature(q, theta, l, b):
    xs = _ref_angles(q, theta, l)
    return float(-4.0 * math.pi**2 * sum(2.0 * math.cos(2.0 * math.pi * x) * bi**2 for x, bi in zip(xs, b)))


def _ref_split(q, th, offsets, t):
    """Levels at the snapped rational phase, one loop per member, and which
    equal the target's in cyclotomic integers; None off the exact path."""
    fracs = [degeneracy._as_fraction(x) for x in th]
    if None in fracs:
        return None
    n = math.lcm(*q.q, *(f.denominator for f in fracs))
    if n > degeneracy.MAX_CYCLOTOMIC_ORDER:
        return None
    base = [f.numerator * (n // f.denominator) % n for f in fracs]
    ks = [[(b + li * (n // qi)) % n for b, li, qi in zip(base, l, q.q)] for l in offsets]
    residues = degeneracy._power_residues(n)
    coords = [sum(residues[k] + residues[-k % n] for k in row) for row in ks]
    equal = [bool((c == coords[t]).all()) for c in coords]
    levels = [sum(2.0 * math.cos(2.0 * math.pi * k / n) for k in row) for row in ks]
    if not coords[t].any():
        levels = [0.0 if e else v for v, e in zip(levels, equal)]
    return levels, equal


def _ref_group(q, th, target):
    offsets = list(itertools.product(*[range(qi) for qi in q.q]))
    t = offsets.index(target)
    split = _ref_split(q, th, offsets, t)
    if split is None:
        levels = [_ref_level(q, th, m) for m in offsets]
        equal = [abs(v - levels[t]) <= degeneracy.GROUP_TOL for v in levels]
        above = sum(v - levels[t] > degeneracy.GROUP_TOL for v in levels)
    else:
        levels, equal = split
        above = sum(not e and v > levels[t] for v, e in zip(levels, equal))
    return [m for m, e in zip(offsets, equal) if e], float(levels[t]), above


def _ref_labels(q, th, members, b):
    labels = []
    for m in members:
        grad = _ref_gradient(q, th, m)
        if float(np.linalg.norm(grad)) <= degeneracy.ZERO_TOL:
            labels.append("zero")
            continue
        slope = float(b @ grad)
        if slope > degeneracy.ZERO_TOL:
            labels.append("plus")
        elif slope < -degeneracy.ZERO_TOL:
            labels.append("minus")
        else:
            labels.append("orth")
    return labels


def _ref_predict(q, th, members, labels, b, sign):
    """(up, down), or ("flat", member) for the first member that vanishes to
    second order."""
    up = down = 0
    for m, label in zip(members, labels):
        if label in ("plus", "minus"):
            if sign * (1.0 if label == "plus" else -1.0) > 0:
                up += 1
            else:
                down += 1
            continue
        curv = _ref_curvature(q, th, m, b)
        if abs(curv) <= degeneracy.ZERO_TOL:
            return "flat", m
        if curv > 0:
            up += 1
        else:
            down += 1
    return up, down


def _ref_count(q, th, members, level, b, t):
    shifted = tuple(x + t * bi for x, bi in zip(th, b))
    guard = abs(t) ** 3
    up = down = 0
    ambiguous = []
    for m in members:
        value = _ref_level(q, shifted, m)
        if value > level + guard:
            up += 1
        elif value < level - guard:
            down += 1
        else:
            ambiguous.append(m)
    return up, down, ambiguous


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _cases(draw):
    """A 2-D or 3-D cell with q_i <= 6, a target offset, a phase whose
    coordinates each snap to k/(2 q_i) or are generic, a unit direction and
    a step of size 5e-4 to 1e-2 of either sign."""
    d = draw(st.integers(2, 3))
    q = tuple(draw(st.integers(1, 6)) for _ in range(d))
    target = tuple(draw(st.integers(0, qi - 1)) for qi in q)
    theta = tuple(
        draw(st.integers(0, 2 * qi - 1)) / (2 * qi) if draw(st.booleans())
        else draw(st.floats(0.0, 1.0, exclude_max=True))
        for qi in q
    )
    raw = np.array([draw(st.sampled_from((0.0, 1.0, -1.0)) | st.floats(-1.0, 1.0)) for _ in q])
    assume(np.linalg.norm(raw) > 0.1)
    t = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(5e-4, 1e-2))
    return period(q), theta, target, raw / np.linalg.norm(raw), t


@settings(max_examples=300)
@given(_cases())
def test_batched_closed_form_matches_the_member_loop(case):
    q, th, target, b, t = case
    for m in enumerate_lambda(q):
        assert _bits(free_level(q, th, m)) == _bits(_ref_level(q, th, m))
        assert _bits(free_gradient(q, th, m)) == _bits(_ref_gradient(q, th, m))
        assert _bits(second_order_coeff(q, th, m, b)) == _bits(_ref_curvature(q, th, m, b))
    g = coincident_group(q, th, target)
    members, level, above = _ref_group(q, th, target)
    assert list(g.members) == members
    assert _bits(g.level) == _bits(level)
    assert g.position_offset == above
    cls = classify(q, g, b)
    labels = _ref_labels(q, th, members, b)
    assert list(cls.labels) == labels
    assert (cls.j_zero, cls.j_plus, cls.j_orth, cls.j_minus, cls.total) == (
        labels.count("zero"), labels.count("plus"), labels.count("orth"),
        labels.count("minus"), len(labels),
    )
    want = _ref_predict(q, th, members, labels, b, 1 if t > 0 else -1)
    if want[0] == "flat":
        with pytest.raises(DegenerateBeyondSecondOrder, match=rf"member {re.escape(str(want[1]))} "):
            predict_moves(q, g, b, 1 if t > 0 else -1)
    else:
        assert predict_moves(q, g, b, 1 if t > 0 else -1) == want
    got = count_moves(q, g, b, t)
    assert (got.n_up, got.n_down, list(got.ambiguous)) == _ref_count(q, th, members, level, b, t)
