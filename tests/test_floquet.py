import json
import math

import numpy as np
import pytest

from latticebands import (
    ComputationError,
    DomainError,
    assemble,
    build_dimer,
    build_vq,
    CounterexampleSpec,
    eigenvalues_sorted_desc,
    load_potential,
    minimal_period,
    parse_potential,
    period,
    phase,
    potential,
    random_potential,
    zero_potential,
)

from latticebands.lattice import Phase
from latticebands.floquet import _eigenvalues_desc, _fiber_eigenvalues, _fiber_stack

from conftest import ref_fiber, ref_levels, random_periods


def dense_fiber_stack(q, V, thetas):
    """Dense sum interior + sum_i (p_i W_i + conj(p_i) W_i^T) + diag(V) over
    n x Q x Q temporaries, with loop-built 0/1 matrices."""
    Q = int(np.prod(q))
    sites = list(np.ndindex(*q))
    interior = np.zeros((Q, Q))
    wraps = [np.zeros((Q, Q)) for _ in q]
    for a, s in enumerate(sites):
        for i, qi in enumerate(q):
            nb = list(s)
            nb[i] = (s[i] + 1) % qi
            b = sites.index(tuple(nb))
            if s[i] + 1 < qi:
                interior[a, b] += 1.0
                interior[b, a] += 1.0
            else:
                wraps[i][a, b] += 1.0
    M = np.empty((len(thetas), Q, Q), dtype=complex)
    M[:] = interior
    for i, qi in enumerate(q):
        p = np.exp(2j * math.pi * qi * thetas[:, i])
        M += p[:, None, None] * wraps[i]
        M += np.conj(p)[:, None, None] * wraps[i].T
    diag = np.arange(Q)
    M[:, diag, diag] += V
    return M


@pytest.mark.parametrize("q_tuple", [(2, 3), (1, 4), (2, 2, 3)])
def test_scatter_builder_equals_dense_sum_bit_for_bit(rng, q_tuple):
    # q_i = 1 puts the wrap on the diagonal, q_i = 2 stacks it on an interior
    # bond; zero and quarter phases give exactly zero real or imaginary parts
    q = period(q_tuple)
    V = random_potential(q, 0.8, seed=int(rng.integers(1 << 30)))
    special = np.array([[0.0] * q.d, [0.25 / qi for qi in q_tuple], [0.5 / qi for qi in q_tuple]])
    thetas = np.vstack([special, rng.uniform(0, 1, size=(40, q.d)) / np.array(q_tuple)])
    got = _fiber_stack(q, V, thetas)
    assert got.tobytes() == dense_fiber_stack(q_tuple, V.values, thetas).tobytes()
    stack = assemble(q, V, thetas)
    assert stack.shape == (len(thetas), q.Q, q.Q)
    assert stack.tobytes() == got.tobytes()
    vals = eigenvalues_sorted_desc(q, V, thetas)
    assert vals.shape == (len(thetas), q.Q) and not vals.flags.writeable
    for j in (0, 1, 7, 42):
        single = assemble(q, V, tuple(thetas[j]))
        assert single.shape == (q.Q, q.Q)
        assert single.tobytes() == got[j].tobytes()
        assert eigenvalues_sorted_desc(q, V, tuple(thetas[j])).tobytes() == vals[j].tobytes()


def test_fiber_at_zero_phase_2x2():
    q = period((2, 2))
    # the periodic 2x2 cell at theta=0 is the complete bipartite graph K_{2,2}
    # doubled: eigenvalues 4, 0, 0, -4
    vals = eigenvalues_sorted_desc(q, zero_potential(q), phase(q, (0.0, 0.0)))
    np.testing.assert_allclose(vals, [4.0, 0.0, 0.0, -4.0], atol=1e-12)


def test_fiber_matrix_entries_2x2():
    # q_i = 2 stacks the wrap bond on the interior bond: entries 1 + e^{+-i phi}
    q = period((2, 2))
    th = (0.1, 0.05)
    F = assemble(q, zero_potential(q), phase(q, th))
    p0 = np.exp(2j * np.pi * 2 * th[0])
    p1 = np.exp(2j * np.pi * 2 * th[1])
    # sites in row-major order: (0,0), (0,1), (1,0), (1,1)
    assert F[0, 1] == pytest.approx(1 + np.conj(p1), abs=1e-15)
    assert F[1, 0] == pytest.approx(1 + p1, abs=1e-15)
    assert F[0, 2] == pytest.approx(1 + np.conj(p0), abs=1e-15)
    assert F[0, 3] == 0.0


def test_period_one_direction_contributes_diagonal():
    # q_i = 1 wraps a site to itself: 2 cos(2 pi theta_i) on the diagonal
    q = period((1, 2))
    th = (0.3, 0.0)
    F = assemble(q, zero_potential(q), th)
    assert F.shape == (2, 2)
    diag = 2.0 * math.cos(2.0 * math.pi * th[0])
    assert F[0, 0] == pytest.approx(diag, abs=1e-14)
    assert F[1, 1] == pytest.approx(diag, abs=1e-14)


def test_hermitian_exactly(rng):
    for _ in range(50):
        q_tuple = random_periods(rng)
        q = period(q_tuple)
        V = random_potential(q, 0.7, seed=int(rng.integers(1 << 30)))
        th = tuple(float(x) for x in rng.uniform(0, 1, size=q.d))
        M = assemble(q, V, phase(q, th))
        assert np.array_equal(M, M.conj().T)


def test_trace_equals_sum_of_potential(rng):
    for _ in range(30):
        q = period(random_periods(rng))
        V = random_potential(q, 1.3, seed=int(rng.integers(1 << 30)))
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=q.d)))
        M = assemble(q, V, th)
        # hopping is traceless unless some q_i = 1 adds 2 cos terms
        diag_hop = sum(
            2.0 * math.cos(2.0 * math.pi * qi * t) * (q.Q if qi == 1 else 0)
            for qi, t in zip(q.q, th.theta)
        )
        assert np.trace(M).real == pytest.approx(np.sum(V.values) + diag_hop, abs=1e-9)
        assert abs(np.trace(M).imag) < 1e-12


def test_matches_loop_reference(rng):
    for _ in range(60):
        q_tuple = random_periods(rng)
        q = period(q_tuple)
        V = random_potential(q, 0.9, seed=int(rng.integers(1 << 30)))
        th = tuple(float(x) for x in rng.uniform(0, 1, size=q.d))
        got = eigenvalues_sorted_desc(q, V, phase(q, th))
        ref = np.sort(np.linalg.eigvalsh(ref_fiber(q_tuple, V.values, phase(q, th).theta)))[::-1]
        np.testing.assert_allclose(got, ref, atol=1e-9)


def test_matches_closed_form_free_levels(rng):
    for _ in range(100):
        q_tuple = random_periods(rng)
        q = period(q_tuple)
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=q.d)))
        got = eigenvalues_sorted_desc(q, zero_potential(q), th)
        np.testing.assert_allclose(got, ref_levels(q_tuple, th.theta), atol=1e-9)


def test_eigenvalues_sorted_and_bounded(rng):
    for _ in range(30):
        q = period(random_periods(rng))
        amp = float(rng.uniform(0, 2))
        V = random_potential(q, amp, seed=int(rng.integers(1 << 30)))
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=q.d)))
        vals = eigenvalues_sorted_desc(q, V, th)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.max(np.abs(vals)) <= 2 * q.d + amp + 1e-9


def test_dimer_fiber_at_zero_phase():
    q = period((2, 2))
    V = build_dimer(q, 1.0)
    vals = eigenvalues_sorted_desc(q, V, phase(q, (0.0, 0.0)))
    s = math.sqrt(17.0)
    np.testing.assert_allclose(vals, [s, 1.0, -1.0, -s], atol=1e-12)


def test_all_levels_vanish_at_quarter_phase():
    # with q = (2, 2) every full-circle coordinate at theta = 1/4 has zero
    # cosine, so the whole fiber spectrum collapses to zero
    q = period((2, 2))
    vals = eigenvalues_sorted_desc(q, zero_potential(q), (0.25, 0.25))
    np.testing.assert_allclose(vals, np.zeros(4), atol=1e-12)


def test_weyl_shift_under_potential(rng):
    # adding V moves each sorted eigenvalue by at most the sup norm
    for _ in range(40):
        q = period(random_periods(rng))
        V = random_potential(q, float(rng.uniform(0.1, 1.5)), seed=int(rng.integers(1 << 30)))
        th = phase(q, tuple(float(x) for x in rng.uniform(0, 1, size=q.d)))
        free = eigenvalues_sorted_desc(q, zero_potential(q), th)
        pert = eigenvalues_sorted_desc(q, V, th)
        assert np.max(np.abs(free - pert)) <= V.sup_norm + 1e-9


def test_band_functions_lipschitz_sampled(rng):
    # |E_k(theta) - E_k(theta')| <= sum_i 4 pi |theta_i - theta'_i|
    q = period((2, 3))
    V = random_potential(q, 0.5, seed=7)
    for _ in range(200):
        a = tuple(float(x) for x in rng.uniform(0, 1, size=2))
        step = rng.uniform(-0.02, 0.02, size=2)
        b = tuple(float(x) for x in np.asarray(a) + step)
        va = eigenvalues_sorted_desc(q, V, phase(q, a))
        vb = eigenvalues_sorted_desc(q, V, phase(q, b))
        bound = sum(4.0 * math.pi * abs(s) for s in step)
        assert np.max(np.abs(va - vb)) <= bound + 1e-9


def test_gauge_lipschitz_bound_holds_on_random_cells():
    # per axis, no finite difference of a band function exceeds 4 pi |dtheta_i|,
    # for any potential and any period, q_i = 1 included
    rng = np.random.default_rng(1707)
    worst = 0.0
    for trial in range(300):
        d = int(rng.integers(2, 4))
        q_tuple = tuple(int(rng.integers(1, 7)) for _ in range(d))
        if trial % 10 == 0:
            q_tuple = (1,) + q_tuple[1:]
        while math.prod(q_tuple) > 36:
            q_tuple = q_tuple[:-1]
        q = period(q_tuple)
        V = random_potential(q, float(rng.uniform(0.0, 3.0)), seed=int(rng.integers(1 << 30)))
        axis = int(rng.integers(q.d))
        a = rng.uniform(0, 1, size=q.d) / np.array(q_tuple)
        step = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4, -1))
        b = a.copy()
        b[axis] += step
        va, vb = eigenvalues_sorted_desc(q, V, np.stack([a, b]))
        diff = float(np.max(np.abs(va - vb)))
        assert diff <= 4.0 * math.pi * abs(step) + 1e-9
        worst = max(worst, diff / (4.0 * math.pi * abs(step)))
    assert worst > 0.9  # the draws come close to the bound (0.9992), so it is tested


def test_potential_validation():
    q = period((2, 3))
    with pytest.raises(DomainError, match="expected Q=6"):
        potential(q, [1.0, 2.0])
    with pytest.raises(DomainError):
        potential(q, [1.0, 2.0, 3.0, 4.0, 5.0, float("nan")])
    V = potential(q, range(6))
    assert V.sup_norm == 5.0
    assert V.value_at(3) == 3.0
    with pytest.raises(ValueError):
        V.values[0] = 99.0  # frozen storage


def test_random_potential_exact_sup_norm(rng):
    for _ in range(20):
        q = period(random_periods(rng))
        amp = float(rng.uniform(0.01, 3))
        V = random_potential(q, amp, seed=int(rng.integers(1 << 30)))
        assert V.sup_norm == pytest.approx(amp, rel=1e-14)
        assert V.sup_norm <= amp * (1 + 1e-14)
    assert random_potential(period((2, 2)), 0.0, seed=1).sup_norm == 0.0


@pytest.mark.parametrize("amp", [float("nan"), float("inf"), -0.5])
def test_random_potential_rejects_bad_amplitude(amp):
    with pytest.raises(DomainError, match="amplitude"):
        random_potential(period((2, 2)), amp, seed=1)


def test_random_potential_is_seeded():
    q = period((2, 3))
    a = random_potential(q, 1.0, seed=42)
    b = random_potential(q, 1.0, seed=42)
    c = random_potential(q, 1.0, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_assemble_rejects_mismatched_potential():
    q = period((2, 3))
    V = zero_potential(period((2, 2)))
    with pytest.raises(DomainError):
        assemble(q, V, (0.0, 0.0))
    with pytest.raises(DomainError):
        assemble(q, zero_potential(q), (0.0, 0.0, 0.0))


def test_eigensolver_failure_names_the_failing_phase(monkeypatch):
    q = period((2, 3))
    V = random_potential(q, 0.5, seed=2)
    thetas = np.array([[0.0, 0.0], [0.125, 0.0625], [0.25, 0.125]])
    bad = assemble(q, V, thetas[1])
    solve = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if a.ndim == 3 or np.array_equal(a, bad):
            raise np.linalg.LinAlgError("no convergence")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(ComputationError, match=r"theta=\[0\.125, 0\.0625\]"):
        eigenvalues_sorted_desc(q, V, thetas)
    with pytest.raises(ComputationError, match=r"theta=\[0\.125, 0\.0625\]"):
        eigenvalues_sorted_desc(q, V, thetas[1])
    with pytest.raises(ComputationError, match=r"theta=\[0\.125, 0\.0625\]"):
        eigenvalues_sorted_desc(q, V, phase(q, thetas[1]))


def test_potential_json_roundtrip(tmp_path):
    payload = {"q": [2, 2], "values": [0.1, -0.2, 0.3, -0.4]}
    p = tmp_path / "pot.json"
    p.write_text(json.dumps(payload))
    V = load_potential(str(p))
    assert V.q.q == (2, 2)
    np.testing.assert_array_equal(V.values, payload["values"])


def test_parse_potential_errors_name_expected_count():
    with pytest.raises(DomainError, match="expected Q=4"):
        parse_potential({"q": [2, 2], "values": [1.0, 2.0]})
    with pytest.raises(DomainError):
        parse_potential({"values": [1.0]})


def test_minimal_period_examples():
    q = period((2, 3))
    assert minimal_period(potential(q, np.full(6, 0.7))) == (1, 1)
    # staggered pattern over a (4, 4) cell repeats every 2 sites
    q44 = period((4, 4))
    assert minimal_period(build_dimer(q44, 0.2)) == (2, 2)
    # the marked origin breaks every proper sub-period
    q24 = period((2, 4))
    V = build_vq(CounterexampleSpec(q24, 0.1))
    assert minimal_period(V) == (2, 4)


def _potential_cases():
    q = period((2, 3))
    return [("free", q, zero_potential(q)), ("random", q, random_potential(q, 0.5, seed=4))]


@pytest.mark.parametrize("name,q,V", _potential_cases(), ids=["free", "random"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_raises_domain_error(name, q, V, bad):
    stack = np.array([[0.0, 0.0], [0.1, bad], [0.2, 0.1]])
    for theta in ((0.1, bad), Phase((bad, 0.0)), stack, stack.tolist()):
        with pytest.raises(DomainError, match="finite"):
            assemble(q, V, theta)
        with pytest.raises(DomainError, match="finite"):
            eigenvalues_sorted_desc(q, V, theta)


@pytest.mark.parametrize("name,q,V", _potential_cases(), ids=["free", "random"])
def test_nested_list_of_phases_is_a_stack(name, q, V):
    rows = [[0.0, 0.0], [0.1, 0.05], [0.3, 0.2]]
    arr = np.array(rows)
    assert assemble(q, V, rows).tobytes() == assemble(q, V, arr).tobytes()
    vals = eigenvalues_sorted_desc(q, V, rows)
    assert vals.shape == (3, 6) and not vals.flags.writeable
    assert vals.tobytes() == eigenvalues_sorted_desc(q, V, arr).tobytes()
    assert vals[1].tobytes() == eigenvalues_sorted_desc(q, V, rows[1]).tobytes()
    for bad in ([[0.0, 0.0], [0.1]], [[[0.0, 0.0]]], "0.1,0.2", [[0.0, 0.0, 0.0]]):
        with pytest.raises(DomainError, match="phase"):
            assemble(q, V, bad)
        with pytest.raises(DomainError, match="phase"):
            eigenvalues_sorted_desc(q, V, bad)


def _sub_periodic_case(rng):
    """q with q_i in 1..6 (Q <= 48), p | q, and a p-periodic V: zero every
    fifth draw, otherwise random on the p-cell and tiled over q."""
    while True:
        q_tuple = tuple(int(x) for x in rng.integers(1, 7, size=int(rng.integers(2, 4))))
        if np.prod(q_tuple) <= 48:
            break
    p_tuple = tuple(int(rng.choice([k for k in range(1, qi + 1) if qi % k == 0])) for qi in q_tuple)
    cell = rng.uniform(-2.0, 2.0, size=p_tuple)
    values = np.tile(cell, [qi // pi for qi, pi in zip(q_tuple, p_tuple)])
    return period(q_tuple), p_tuple, values


def test_minimal_cell_solve_matches_full_cell_solve(rng):
    # Floquet-Bloch folding: spec H_q(theta) is the union over l of
    # spec H_p(theta + l/q); the minimal-cell solve must agree with the
    # dense Q x Q solve to rounding for every p | q, V = 0 and p = q included
    kinds = {"zero": 0, "sub": 0, "full": 0}
    for case in range(200):
        q, p_tuple, values = _sub_periodic_case(rng)
        if case % 5 == 0:
            values = np.zeros(q.Q)
        elif case % 5 == 1:
            p_tuple = q.q
            values = rng.uniform(-2.0, 2.0, size=q.Q)
        V = potential(q, values.reshape(-1))
        assert all(pi % mi == 0 for pi, mi in zip(p_tuple, minimal_period(V)))
        kinds["zero" if case % 5 == 0 else "full" if minimal_period(V) == q.q else "sub"] += 1
        thetas = rng.uniform(0, 1, size=(5, q.d)) / np.array(q.q)
        got = eigenvalues_sorted_desc(q, V, thetas)
        want = np.linalg.eigvalsh(assemble(q, V, thetas))[:, ::-1]
        assert got.shape == (5, q.Q)
        assert np.all(np.diff(got, axis=1) <= 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize("q_tuple", [(2, 3), (2, 2, 3)])
def test_full_period_solve_is_the_plain_stack_solve(rng, q_tuple):
    q = period(q_tuple)
    V = random_potential(q, 0.6, seed=7)
    assert minimal_period(V) == q_tuple
    thetas = rng.uniform(0, 1, size=(30, q.d)) / np.array(q_tuple)
    want = _eigenvalues_desc(_fiber_stack(q, V, thetas), thetas)
    assert _fiber_eigenvalues(q, V, thetas).tobytes() == want.tobytes()
    assert eigenvalues_sorted_desc(q, V, thetas).tobytes() == np.ascontiguousarray(want).tobytes()


def test_eigensolver_failure_on_the_minimal_cell_names_theta(monkeypatch):
    # free (2, 3): every fiber splits into six 1 x 1 fibers at
    # kappa = theta + l/q; the failing one belongs to theta row 1
    q = period((2, 3))
    V = zero_potential(q)
    thetas = np.array([[0.0, 0.0], [0.125, 0.0625], [0.25, 0.125]])
    kappa = thetas[1] + np.array([1 / 2, 2 / 3])
    p, Vp, _ = V._cell
    bad = _fiber_stack(p, Vp, kappa[None, :])[0]
    solve = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        if a.ndim == 3 or np.array_equal(a, bad):
            raise np.linalg.LinAlgError("no convergence")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for theta in (thetas, thetas[1], phase(q, thetas[1])):
        with pytest.raises(ComputationError, match=r"theta=\[0\.125, 0\.0625\]"):
            eigenvalues_sorted_desc(q, V, theta)
