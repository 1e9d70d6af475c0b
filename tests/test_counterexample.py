import itertools
import math
import re

import numpy as np
import pytest

from latticebands import (
    DELTA_MAX_DEFAULT,
    DomainError,
    GridSpec,
    assemble_spectrum,
    build_dimer,
    build_vq,
    certified_edges,
    dimer_oracle_spectrum,
    eigenvalues_sorted_desc,
    minimal_period,
    neighbor_sum_check,
    period,
    phase,
    potential,
    sample_bands,
    verify_gap_at_zero,
)


def test_spec_requires_even_periods():
    with pytest.raises(DomainError, match="even"):
        build_vq(period((2, 3)), 0.1)
    with pytest.raises(DomainError):
        build_vq(period((2, 2)), 0.0)
    with pytest.raises(DomainError):
        build_vq(period((2, 2)), -0.1)


@pytest.mark.parametrize("q_tuple, delta", [
    ((2, 3), 0.1), ((2, 2), 0.0), ((2, 2), -0.1), ((2, 2), math.nan),
], ids=repr)
def test_both_constructions_share_one_precondition_check(q_tuple, delta):
    # an odd period gave build_dimer a message of its own
    messages = []
    for build in (build_vq, build_dimer):
        with pytest.raises(DomainError) as info:
            build(period(q_tuple), delta)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_spec_coupling_cap():
    with pytest.raises(DomainError, match=re.escape(
            f"coupling 0.3 exceeds DELTA_MAX_DEFAULT = {DELTA_MAX_DEFAULT}; "
            "force=True (counterexample --force) builds anyway")):
        build_vq(period((2, 2)), 0.3)
    assert build_vq(period((2, 2)), 0.3, force=True).sup_norm == 0.3


def test_build_vq_values():
    V = build_vq(period((2, 2)), 0.1)
    # row-major sites (0,0), (0,1), (1,0), (1,1)
    np.testing.assert_allclose(V.values, [0.0995, -0.1, -0.1, 0.1], atol=1e-16)
    assert V.sup_norm == 0.1


def test_build_dimer_values():
    V = build_dimer(period((2, 2)), 0.2)
    np.testing.assert_array_equal(V.values, [0.2, -0.2, -0.2, 0.2])
    with pytest.raises(DomainError):
        build_dimer(period((2, 3)), 0.2)
    with pytest.raises(DomainError):
        build_dimer(period((2, 2)), 0.0)


@pytest.mark.parametrize("q_tuple", [(2, 4), (4, 2, 6), (2, 2, 2, 2)])
@pytest.mark.parametrize("delta", [0.1, 0.2111111, 1])
def test_staggered_values_match_a_per_site_loop(q_tuple, delta):
    # site n (row-major) holds delta (-1)^{n_1 + ... + n_d}; build_vq lowers
    # the origin to (1 - delta^2/d) delta; the same bits as a loop over sites
    signs = [-1 if sum(n) % 2 else 1 for n in itertools.product(*map(range, q_tuple))]
    q = period(q_tuple)
    dimer = [delta * s for s in signs]
    vq = [(1.0 - delta**2 / q.d) * delta] + dimer[1:]
    assert build_dimer(q, delta).values.tolist() == dimer
    assert build_vq(q, delta, force=True).values.tolist() == vq


def test_minimal_period_is_full_cell():
    for q_tuple in [(2, 2), (2, 4), (4, 2), (2, 2, 2)]:
        q = period(q_tuple)
        V = build_vq(q, 0.1)
        assert minimal_period(V) == q_tuple
    # the unmarked pattern repeats every 2 sites whatever the cell
    assert minimal_period(build_dimer(period((4, 4)), 0.1)) == (2, 2)


def test_neighbor_sums_of_marked_potential():
    V = build_vq(period((2, 4)), 0.2)
    report = neighbor_sum_check(V, 0.2)
    assert report.ok
    assert not report.pure_dimer
    assert report.expected == pytest.approx(-(0.2**3) / 2.0, abs=1e-18)
    assert report.failures == ()


def test_neighbor_sums_flag_plain_staggered_pattern():
    q = period((2, 2))
    report = neighbor_sum_check(build_dimer(q, 0.2), 0.2)
    assert report.pure_dimer
    assert not report.ok  # the origin correction is missing
    assert all(want == report.expected for _, _, _, want in report.failures)


def test_neighbor_sums_catch_a_perturbed_entry():
    q = period((2, 2))
    vals = build_vq(q, 0.1).values.copy()
    vals[3] += 1e-6
    broken = potential(q, vals)
    report = neighbor_sum_check(broken, 0.1)
    assert not report.ok
    sites = {site for site, _, _, _ in report.failures}
    assert (1, 1) in sites or (0, 1) in sites or (1, 0) in sites


def test_neighbor_sum_tolerance_scales_with_the_coupling():
    # at a forced coupling the sums round by more than an absolute 1e-15
    q = period((2, 2))
    report = neighbor_sum_check(build_vq(q, 2.8, force=True), 2.8)
    assert report.ok and report.failures == ()
    # yet the bound, 4 ulps of delta + delta^3/d, still sees a 1e-12 move
    vals = build_vq(q, 0.2).values.copy()
    vals[1] += 1e-12  # site (0, 1), an odd one
    report = neighbor_sum_check(potential(q, vals), 0.2)
    assert not report.ok
    # the four sums that hold site (0, 1), wrapping around the 2 x 2 cell
    assert sorted((site, axis) for site, axis, _, _ in report.failures) == [
        ((0, 0), 1), ((0, 1), 0), ((0, 1), 1), ((1, 1), 0)]


def test_staggered_fiber_matches_oracle(rng):
    q = period((2, 2))
    delta = 0.3
    V = build_dimer(q, delta)
    neg, pos = dimer_oracle_spectrum(q.d, delta)
    for _ in range(100):
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=2)))
        vals = eigenvalues_sorted_desc(q, V, th)
        for v in vals:
            assert neg.lo - 1e-9 <= v <= pos.hi + 1e-9
            assert abs(v) >= delta - 1e-9
    # at theta = 0 both oracle endpoints are attained
    at0 = eigenvalues_sorted_desc(q, V, phase(q, (0.0, 0.0)))
    np.testing.assert_allclose(
        at0, [pos.hi, delta, -delta, neg.lo], atol=1e-12
    )


def test_dimer_oracle_validation():
    with pytest.raises(DomainError):
        dimer_oracle_spectrum(0, 0.1)
    with pytest.raises(DomainError):
        dimer_oracle_spectrum(2, 0.0)
    neg, pos = dimer_oracle_spectrum(3, 0.5)
    assert neg.lo == -pos.hi
    assert neg.hi == -pos.lo
    assert pos.hi == pytest.approx(math.sqrt(36.25), abs=1e-15)


def test_gap_check_on_fine_grid():
    q = period((2, 2))
    V = build_vq(q, 0.1)
    grid = GridSpec((256, 256))
    check = verify_gap_at_zero(V, 0.1, grid)
    # the table the gap check's sweep kept on the potential
    table = sample_bands(q, V, grid)
    assert check.margin == pytest.approx(0.0995, abs=1e-4)
    assert table.slack == pytest.approx(math.pi / 128, abs=1e-12)
    assert check.passes
    assert not check.inconclusive
    # one outer range end: the margin less the slack and the rounding
    assert check.certified_margin == check.margin - (table.slack + table.rounding)
    assert check.certified_margin > 0.1 / 2.0


def test_gap_check_inconclusive_on_coarse_grid():
    check = verify_gap_at_zero(build_vq(period((2, 2)), 0.1), 0.1, GridSpec((32, 32)))
    assert check.passes  # the sampled margin itself is fine
    assert check.inconclusive  # but the slack eats the headroom


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan], ids=repr)
def test_checks_reject_a_coupling_that_is_not_positive(delta):
    # with a NaN coupling every neighbor sum of any potential passed, and
    # the gap check read as neither passing nor inconclusive
    V = build_vq(period((2, 2)), 0.1)
    with pytest.raises(DomainError, match="coupling must be positive"):
        neighbor_sum_check(V, delta)
    with pytest.raises(DomainError, match="coupling must be positive"):
        verify_gap_at_zero(V, delta, GridSpec((8, 8)))


def test_marked_spectrum_splits_into_two_certified_intervals():
    q = period((2, 2))
    table = certified_edges(q, build_vq(q, 0.1), GridSpec((128, 128)))
    report = assemble_spectrum(table)
    assert len(report.intervals) == 2
    assert report.certified
    gap = report.gaps[0]
    assert gap.lo <= 0.0 <= gap.hi
    assert gap.width == pytest.approx(2 * 0.0995, abs=2e-3)
