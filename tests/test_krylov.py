"""Phi-action tests: Taylor actions against the dense Taylor oracle and
against scipy's Pade expm, the oracle against independent identities, and
the documented edge cases."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.stats

from setd.errors import InvalidArgumentError, KrylovConvergenceError
from setd import krylov
from setd.grid import BoundaryTag, build_grid
from setd.harness import advection_study, build_problem
from setd.krylov import (_THETA, KrylovConfig, PhiResult, _taylor_parameters, dense_phi,
                         fused_action, phi0_action, phi1_action)
from setd.operators import assemble_fem, assemble_fv, dirichlet
from setd.sparse import SparseOperator


def _random_operator(n, rho, seed, density=0.1):
    """Random sparse matrix with spectral radius scaled to rho."""
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=density, random_state=rng, format="csr")
    M = M - sp.diags(np.full(n, 0.5))  # push mass off the positive axis
    lam = np.max(np.abs(np.linalg.eigvals(M.toarray())))
    M = M * (rho / lam)
    return SparseOperator.from_scipy(M.tocsr())


# ---------------------------------------------------------------------------
# the dense oracle itself, checked against identities it does not use
# ---------------------------------------------------------------------------

def test_dense_phi0_matches_scipy_expm():
    rng = np.random.default_rng(1)
    for n in (3, 17, 40):
        M = rng.standard_normal((n, n))
        np.testing.assert_allclose(dense_phi(M, 0, 0.7), scipy.linalg.expm(0.7 * M),
                                   rtol=1e-12, atol=1e-13)


def test_dense_phi1_inverse_identity():
    # for invertible dt*A: phi1(dt A) = (e^{dt A} - I)(dt A)^{-1}
    rng = np.random.default_rng(2)
    M = rng.standard_normal((12, 12)) - 3.0 * np.eye(12)
    dt = 0.31
    expected = (scipy.linalg.expm(dt * M) - np.eye(12)) @ np.linalg.inv(dt * M)
    np.testing.assert_allclose(dense_phi(M, 1, dt), expected, rtol=1e-11, atol=1e-12)


def test_dense_phi1_singular_matrix():
    # nilpotent N: phi1(N) = I + N/2 + N^2/6 exactly (series truncates)
    N = np.zeros((3, 3))
    N[0, 1] = 2.0
    N[1, 2] = -1.0
    expected = np.eye(3) + N / 2 + (N @ N) / 6
    np.testing.assert_allclose(dense_phi(N, 1, 1.0), expected, rtol=1e-14, atol=1e-15)
    # and phi_k(0) = I / k!
    np.testing.assert_allclose(dense_phi(np.zeros((4, 4)), 0, 1.0), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(dense_phi(np.zeros((4, 4)), 1, 1.0), np.eye(4), atol=1e-15)


def test_dense_phi_recurrence():
    # phi0(M) = I + M phi1(M)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((20, 20))
    lhs = dense_phi(M, 0, 1.0)
    rhs = np.eye(20) + M @ dense_phi(M, 1, 1.0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


def test_dense_phi_validation():
    with pytest.raises(InvalidArgumentError):
        dense_phi(np.zeros((3, 3)), 2, 1.0)
    with pytest.raises(InvalidArgumentError):
        dense_phi(np.zeros((3, 4)), 0, 1.0)
    with pytest.raises(InvalidArgumentError):
        dense_phi(np.zeros((300, 300)), 0, 1.0)
    with pytest.raises(InvalidArgumentError):
        dense_phi(np.zeros((3, 3)), 0, -1.0)


# ---------------------------------------------------------------------------
# Taylor actions vs the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("rho", [0.5, 5.0, 25.0])
def test_phi_actions_match_dense_oracle(seed, rho):
    n = 48
    A = _random_operator(n, rho, seed)
    rng = np.random.default_rng(100 + seed)
    v = rng.standard_normal(n)
    dense = A.to_scipy().toarray()
    for k, action in ((0, phi0_action), (1, phi1_action)):
        got = action(A, v, 1.0)
        want = dense_phi(dense, k, 1.0) @ v
        err = np.linalg.norm(got.vector - want) / max(np.linalg.norm(want), 1e-300)
        assert err <= 1e-8, f"phi{k} defect {err:.2e} (rho={rho}, seed={seed})"


def test_phi_actions_on_fem_generator():
    prob = assemble_fem(build_grid(8, 8, 1.0, 1.0), 1.0, c0=0.5)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(prob.ndof)
    dense = prob.A.to_scipy().toarray()
    for k, action in ((0, phi0_action), (1, phi1_action)):
        got = action(prob.A, v, 0.1).vector
        want = dense_phi(dense, k, 0.1) @ v
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * np.linalg.norm(want))


def test_phi0_semigroup_property():
    A = _random_operator(30, 4.0, 11)
    v = np.random.default_rng(11).standard_normal(30)
    one = phi0_action(A, v, 0.8).vector
    half = phi0_action(A, phi0_action(A, v, 0.4).vector, 0.4).vector
    np.testing.assert_allclose(one, half, rtol=0, atol=1e-7 * np.linalg.norm(one))


def test_phi_edge_cases():
    A = _random_operator(16, 2.0, 5)
    v = np.random.default_rng(5).standard_normal(16)
    # dt = 0: exact copy
    out = phi0_action(A, v, 0.0)
    np.testing.assert_array_equal(out.vector, v)
    assert out.est_error == 0.0 and out.restarts_used == 0
    np.testing.assert_array_equal(phi1_action(A, v, 0.0).vector, v)
    # A = 0 (no stored entries): exact copy for both actions
    Z = SparseOperator.from_scipy(sp.csr_matrix((16, 16)))
    np.testing.assert_array_equal(phi0_action(Z, v, 3.0).vector, v)
    np.testing.assert_array_equal(phi1_action(Z, v, 3.0).vector, v)
    # v = 0: zero comes back
    np.testing.assert_array_equal(phi0_action(A, np.zeros(16), 1.0).vector, np.zeros(16))


def test_phi_validation_errors():
    A = _random_operator(10, 1.0, 7)
    with pytest.raises(InvalidArgumentError):
        phi0_action(A, np.zeros(9), 1.0)
    with pytest.raises(InvalidArgumentError):
        phi0_action(A, np.full(10, np.nan), 1.0)
    with pytest.raises(InvalidArgumentError):
        phi0_action(A, np.zeros(10), -0.5)
    rect = SparseOperator.from_scipy(sp.csr_matrix(np.ones((3, 4))))
    with pytest.raises(InvalidArgumentError):
        phi0_action(rect, np.zeros(4), 1.0)
    # a fractional ceiling would reach the uniformized route's tail lookup
    # as a float index (IndexError, not a SETDError) on a long series
    for bad in (-1, 0.5, 1.5, 2.0, "3", None):
        with pytest.raises(InvalidArgumentError):
            KrylovConfig(max_restarts=bad)
    assert KrylovConfig(max_restarts=np.int64(3)).max_restarts == 3


def _scaling_steps(A, dt, fused=False):
    """Scaling steps the documented rule picks, from a dense shifted 1-norm."""
    D = A.dense()
    mu = np.trace(D) / D.shape[0]
    norm = np.abs(D - mu * np.eye(D.shape[0])).sum(axis=0).max()
    if fused:
        norm = max(norm, abs(mu))
    m, s = _taylor_parameters(dt * norm)
    # (m, s) is the cheapest admissible pair of the theta table
    assert s == math.ceil(dt * norm / _THETA[m])
    assert all(m * s <= k * math.ceil(dt * norm / th) for k, th in _THETA.items())
    return s


def test_restart_budget_exhaustion_raises_with_estimate():
    # the cap on scaling steps (max_restarts + 1) raises a typed error that
    # still carries a positive truncation bound; at the cap the action runs
    A = _random_operator(40, 50.0, 9)
    v = np.random.default_rng(9).standard_normal(40)
    steps = _scaling_steps(A, 10.0)
    assert steps > 3
    with pytest.raises(KrylovConvergenceError) as exc:
        phi0_action(A, v, 10.0, KrylovConfig(max_restarts=2))
    assert exc.value.est_error > 0
    with pytest.raises(KrylovConvergenceError):
        fused_action(A, v, v, 10.0, KrylovConfig(max_restarts=steps - 2))
    res = phi0_action(A, v, 10.0, KrylovConfig(max_restarts=steps - 1))
    assert res.restarts_used == steps - 1


def test_result_reports_substeps():
    A = _random_operator(40, 20.0, 13)
    v = np.random.default_rng(13).standard_normal(40)
    assert A._shifted is None                # filled by the first action only
    res = phi0_action(A, v, 1.0)
    assert isinstance(res, PhiResult)
    assert A._shifted is not None
    shifted = A.shifted()
    assert A.shifted() is shifted            # built once, then reused
    D = A.dense()
    mu = np.trace(D) / 40
    S = D - mu * np.eye(40)
    assert A.shifted_norm() == pytest.approx((mu, np.abs(S).sum(0).max()), rel=1e-14)
    np.testing.assert_allclose(shifted.dense(), S, rtol=0, atol=1e-15 * abs(mu))
    steps = _scaling_steps(A, 1.0)
    assert res.restarts_used == steps - 1 >= 1   # stiff enough to need scaling steps
    assert np.isfinite(res.est_error) and res.est_error >= 0
    fused = fused_action(A, v, v, 1.0)
    assert fused.restarts_used == _scaling_steps(A, 1.0, fused=True) - 1


def _ungated_action(B, mu, m, s, u, f, t):
    """The library's Taylor loop with the exact stop test taken at every
    term: same arithmetic, same shifted operator B = A - mu I."""
    h = t / s
    eta = np.exp(h * mu)
    for _ in range(s):
        out = u.copy()
        v, w = u, 1.0
        c1 = np.abs(v).max()
        for k in range(1, m + 1):
            v = B.matvec(v)
            if f is not None:
                v += w * f
                w *= -mu * h / k
            v *= h / k
            out += v
            c2 = np.abs(v).max()
            if c1 + c2 <= 2.0 ** -53 * np.abs(out).max():
                break
            c1 = c2
        u = eta * out
    return u


def test_gated_stop_test_changes_no_stop():
    # the library reads ||out||_inf only when a scalar bound says the series
    # could stop; every stop must still fall on the term the exact test
    # picks, so vectors agree bit for bit and products one for one (on
    # operators that are not Metzler, which take the Taylor route)
    rng = np.random.default_rng(31)
    ran_to_cap = 0
    for A in _non_metzler_generators():
        n = A.n_rows
        mu, norm = A.shifted_norm()
        B = A.shifted()
        calls = []
        product = B.matvec
        B.matvec = lambda x: calls.append(None) or product(x)
        for dt in (1e-6, 1.0 / 1280, 1.0 / 40, 0.5):
            u, f = rng.standard_normal(n), rng.standard_normal(n)
            zero = np.zeros(n)
            cases = ((lambda: phi0_action(A, u, dt).vector, u, None, 1.0),
                     (lambda: phi1_action(A, f, dt).vector, zero, f, dt),
                     (lambda: fused_action(A, u, f, dt).vector, u, f, 1.0))
            for action, start, forcing, scale in cases:
                m, s = _taylor_parameters(
                    dt * (norm if forcing is None else max(norm, abs(mu))))
                calls.clear()
                got = action()
                products = len(calls)
                calls.clear()
                want = _ungated_action(B, mu, m, s, start, forcing, dt) / scale
                assert products == len(calls) <= m * s
                assert got.tobytes() == want.tobytes()
                ran_to_cap += products == m * s
    assert ran_to_cap > 0                    # some series run to degree m


def test_shifted_cache_under_threads():
    # threads that race to fill a fresh operator's shifted-operator cache,
    # or its uniformized form and Poisson weights, get the serial results
    # bit for bit and leave A's arrays alone
    rng = np.random.default_rng(41)
    fresh = lambda: _study_generators() + _non_metzler_generators()
    for A, serial in zip(fresh(), fresh()):
        arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
        u = rng.standard_normal(A.n_rows)
        fs = [rng.standard_normal(A.n_rows) for _ in range(4)]
        barrier = threading.Barrier(4)

        def work(f):
            barrier.wait(timeout=60)
            return fused_action(A, u, f, 0.5).vector

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)          # switch threads inside the cache fill
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(work, fs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for f, got in zip(fs, threaded):
            assert got.tobytes() == fused_action(serial, u, f, 0.5).vector.tobytes()
        for before, after in zip(arrays, (A.data, A.indices, A.indptr)):
            assert before.dtype == after.dtype and before.tobytes() == after.tobytes()
        # the route's own cache is the one filled
        if A.uniformized() is None:
            assert A._shifted is not None and A._poisson == {}
        else:
            assert A._shifted is None and list(A._poisson) == [0.5]
            P, P_serial = A.uniformized()[0], serial.uniformized()[0]
            assert P.data.tobytes() == P_serial.data.tobytes()
            assert A._poisson[0.5][0] == serial._poisson[0.5][0]


def _study_generators():
    grid = build_grid(8, 8, 1.0, 1.0)
    fem = assemble_fem(grid, 1.0).A   # Neumann, c0 = 0: singular
    fv = assemble_fv(grid, np.array([1e-2, 1e-3]), q_faces=(1.0, 0.25),
                     bc={BoundaryTag.LEFT: dirichlet(1.0)}).A
    assert np.any(np.diff(fv.indptr) == 0)  # frozen Dirichlet rows are empty
    return fem, fv


def _non_metzler_generators():
    """P1-FEM generators with negative off-diagonal entries: the Taylor route."""
    grid = build_grid(8, 8, 1.0, 1.0)
    return (assemble_fem(grid, 1.0, c0=0.5).A,                 # consistent-mass shift
            assemble_fem(grid, 1.0, velocity=(1.0, 0.5)).A)    # advection


def _metzler(n, row_sums, seed, scale=30.0):
    """Random sparse Metzler matrix with the given row sums and off-diagonal
    entries in [0, scale)."""
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=0.15, random_state=rng, format="lil") * scale
    M.setdiag(0.0)
    M = M.tocsr()
    M = M + sp.diags(np.asarray(row_sums) - np.asarray(M.sum(axis=1)).ravel())
    return SparseOperator.from_scipy(M)


def _metzler_generators():
    """Metzler operators of the uniformized route: the two study generators,
    a small Darcy-streak FV generator, one with strongly negative row sums
    (beta = lam > ||A + lam I||_inf: a rate of ||A + lam I||_inf would
    truncate the f terms, which grow like (lam/beta)^k, far too early),
    one whose largest row sum is positive (lam / beta < 1) and one whose
    diagonal is all positive (lam = 0: a negative shift -min a_ii would give
    lam / beta near -12, and f terms growing like it)."""
    streaks = build_problem(advection_study(heterogeneous=True, nx=8)).discrete.A
    rng = np.random.default_rng(5)
    negative = _metzler(40, -rng.uniform(100.0, 600.0, 40), 5)
    mixed = _metzler(40, np.append(-rng.uniform(10.0, 60.0, 39), 1.5), 7)
    positive = _metzler(40, rng.uniform(1.85, 1.95, 40), 9, scale=0.01)
    assert positive.dense().diagonal().min() > 1.75
    return _study_generators() + (streaks, negative, mixed, positive)


def _spy_products(op):
    """Count op.matvec calls in the returned list."""
    calls = []
    product = op.matvec
    op.matvec = lambda x: calls.append(None) or product(x)
    return calls


def _dense_uniformization(A, dt):
    """(x, lam, beta) of the documented rule, from the dense matrix."""
    D = A.dense()
    lam = max(-np.diag(D).min(), 0.0)
    beta = max(np.abs(D + lam * np.eye(D.shape[0])).sum(axis=1).max(), lam)
    return dt * beta, lam, beta


@pytest.mark.parametrize("dt", [1.0 / 1280, 1.0 / 40, 0.5])
def test_fused_action_matches_pade_expm(dt):
    # exp([[dt A, dt I], [0, 0]]) = [[exp(dt A), dt phi1(dt A)], [0, I]];
    # scipy's Pade expm shares no code with either Taylor route
    rng = np.random.default_rng(21)
    for A in _study_generators():
        n = A.n_rows
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = dt * A.dense()
        M[:n, n:] = dt * np.eye(n)
        E = scipy.linalg.expm(M)
        u, f = rng.standard_normal(n), rng.standard_normal(n)
        want = E[:n, :n] @ u + E[:n, n:] @ f
        got = fused_action(A, u, f, dt).vector
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # phi0 and phi1 agree with the same blocks
        np.testing.assert_allclose(phi0_action(A, u, dt).vector, E[:n, :n] @ u,
                                   rtol=0, atol=1e-12 * np.linalg.norm(E[:n, :n] @ u))
        np.testing.assert_allclose(dt * phi1_action(A, f, dt).vector, E[:n, n:] @ f,
                                   rtol=0, atol=1e-12 * np.linalg.norm(E[:n, n:] @ f))


def test_fused_action_edge_cases():
    A = _random_operator(16, 2.0, 5)
    rng = np.random.default_rng(6)
    u, f = rng.standard_normal(16), rng.standard_normal(16)
    np.testing.assert_array_equal(fused_action(A, u, f, 0.0).vector, u)
    Z = SparseOperator.from_scipy(sp.csr_matrix((16, 16)))
    np.testing.assert_array_equal(fused_action(Z, u, f, 2.0).vector, u + 2.0 * f)
    # zero forcing is the plain semigroup action, bit for bit
    assert (fused_action(A, u, np.zeros(16), 0.7).vector.tobytes()
            == phi0_action(A, u, 0.7).vector.tobytes())
    with pytest.raises(InvalidArgumentError):
        fused_action(A, u, np.zeros(15), 0.7)
    with pytest.raises(InvalidArgumentError):
        fused_action(A, u, np.full(16, np.inf), 0.7)


def test_actions_leave_global_random_state_alone():
    A = _random_operator(30, 25.0, 4)
    v = np.random.default_rng(4).standard_normal(30)
    before = np.random.get_state()
    phi0_action(A, v, 1.0)
    phi1_action(A, v, 1.0)
    fused_action(A, v, v, 1.0)
    after = np.random.get_state()
    assert before[0] == after[0] and before[1].tobytes() == after[1].tobytes()
    assert before[2:] == after[2:]


@pytest.mark.parametrize("dt", [1.0 / 1280, 1.0 / 40, 0.5])
def test_uniformized_actions_match_pade_expm(dt):
    # exp([[dt A, dt f], [0, 0]]) [u; 1] = phi0(dt A) u + dt phi1(dt A) f;
    # scipy's Pade expm shares no code with uniformization
    rng = np.random.default_rng(51)
    for A in _metzler_generators():
        n = A.n_rows
        u, f = rng.standard_normal(n), rng.standard_normal(n)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = dt * A.dense()
        M[:n, n] = dt * f
        E = scipy.linalg.expm(M)
        rel = lambda got, want: np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel(fused_action(A, u, f, dt).vector, E[:n, :n] @ u + E[:n, n]) <= 1e-12
        assert rel(phi0_action(A, u, dt).vector, E[:n, :n] @ u) <= 1e-12
        assert rel(dt * phi1_action(A, f, dt).vector, E[:n, n]) <= 1e-12
        assert A._shifted is None            # the Taylor route never ran


def test_uniformized_series_length_and_bound():
    # the series takes exactly K products with P, K the smallest k with
    # P(N >= k) <= 2^-53 for N ~ Poisson(dt * beta), recomputed with
    # scipy.stats; the bound is the documented Poisson tail bound
    rng = np.random.default_rng(52)
    for A in _metzler_generators():
        n = A.n_rows
        P, beta, lam = A.uniformized()
        x1, lam_d, beta_d = _dense_uniformization(A, 1.0)
        assert (lam, beta) == pytest.approx((lam_d, beta_d), rel=1e-14)
        D = (A.dense() + lam * np.eye(n)) / beta
        np.testing.assert_allclose(P.dense(), D, rtol=1e-15, atol=0)
        assert P.data.min() >= 0 and P.dense().sum(axis=1).max() <= 1 + 1e-15
        calls = _spy_products(P)
        for dt in (1e-6, 1.0 / 1280, 1.0 / 40, 0.5):
            x = dt * beta_d
            K = next(k for k in range(1, 10 ** 6)
                     if scipy.stats.poisson.sf(k - 1, x) <= 2.0 ** -53)
            u, f = rng.standard_normal(n), rng.standard_normal(n)
            for action, forcing in ((lambda: phi0_action(A, u, dt), None),
                                    (lambda: fused_action(A, u, f, dt), f)):
                calls.clear()
                res = action()
                assert len(calls) == K and res.restarts_used == 0
                f_norm = 0.0 if forcing is None else np.abs(forcing).max()
                bound = math.exp(dt * (beta - lam)) * (
                    scipy.stats.poisson.sf(K, x) * np.abs(u).max()
                    + dt * scipy.stats.poisson.sf(K - 1, x) * f_norm)
                assert 0 < res.est_error == pytest.approx(bound, rel=1e-6)


def test_route_falls_back_to_taylor():
    # not Metzler, or a growth factor e^{dt(beta - lam)} above e: the
    # shifted cache fills, P is never multiplied by, and the result is
    # the Taylor action's bit for bit
    rng = np.random.default_rng(53)
    growing = _metzler(30, np.full(30, 3.0), 6)     # row sums 3
    cases = [(A, 0.5) for A in _non_metzler_generators()] + [(growing, 0.5)]
    for A, dt in cases:
        assert A._shifted is None
        calls = None if A.uniformized() is None else _spy_products(A.uniformized()[0])
        u, f = rng.standard_normal(A.n_rows), rng.standard_normal(A.n_rows)
        got = fused_action(A, u, f, dt).vector
        want = krylov._taylor_action(A, u, f, dt, KrylovConfig()).vector
        assert got.tobytes() == want.tobytes()
        assert A._shifted is not None and A._poisson == {}
        assert calls is None or calls == []
    # below the guard the same Metzler operator is uniformized
    calls = _spy_products(growing.uniformized()[0])
    phi0_action(growing, rng.standard_normal(30), 0.25)
    assert calls and list(growing._poisson) == [0.25]


def test_uniformized_product_ceiling_raises_with_estimate():
    # the ceiling (max_restarts + 1) * 55 holds on the uniformized route:
    # K just above it and K far above it both raise with a positive bound
    A = build_problem(advection_study(heterogeneous=True, nx=8)).discrete.A
    v = np.random.default_rng(54).standard_normal(A.n_rows)
    x, _, _ = _dense_uniformization(A, 0.5)
    K = next(k for k in range(1, 10 ** 6) if scipy.stats.poisson.sf(k - 1, x) <= 2.0 ** -53)
    near = K // 55 - 1                       # ceiling 55 * (near + 1) < K
    assert x - 1 < 55 * (near + 1) < K
    for restarts in (near, 0):
        with pytest.raises(KrylovConvergenceError) as exc:
            fused_action(A, v, v, 0.5, KrylovConfig(max_restarts=restarts))
        assert exc.value.est_error > 0
        with pytest.raises(KrylovConvergenceError):
            phi0_action(A, v, 0.5, KrylovConfig(max_restarts=restarts))
    assert A._shifted is None
    res = fused_action(A, v, v, 0.5, KrylovConfig(max_restarts=K // 55))
    assert res.restarts_used == 0


def test_poisson_weights_to_a_few_ulps():
    # against exact rationals: with x = p/q, term_k = p^k q^(top-k) top!/k!
    # is an integer proportional to x^k/k!, and int / int rounds correctly
    for x in (0.25, 5.0, 320.0, 2000.0):
        w, tail = krylov._poisson_weights(x)
        top = len(tail) - 2
        p, q = x.as_integer_ratio()
        terms = [p ** k * q ** (top - k) * math.perm(top, top - k) for k in range(top + 1)]
        total = sum(terms)
        exact = np.array([t / total for t in terms[:len(w)]])
        big = exact > 1e-300
        assert np.abs(w[big] / exact[big] - 1).max() <= 1e-14, x
        # K is the first index whose tail is at most 2^-53
        K = len(w) - 1
        assert sum(terms[K:]) / total <= 2.0 ** -53 < sum(terms[K - 1:]) / total
