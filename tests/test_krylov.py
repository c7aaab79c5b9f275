"""Phi-action tests: uniformized actions against the dense Taylor oracle
and against scipy's Pade expm, the oracle against independent identities,
and the documented edge cases."""

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.stats

from setd.errors import InvalidArgumentError, KrylovConvergenceError
from setd import krylov, sparse
from setd.grid import BoundaryTag, build_grid
from setd.harness import advection_study, build_problem
from setd.krylov import dense_phi, fused_action, phi0_action, phi1_action
from setd.operators import assemble_fem, assemble_fv, dirichlet
from setd.sparse import SparseOperator


def _random_operator(n, rho, seed, density=0.1):
    """Random sparse matrix with spectral radius scaled to rho."""
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=density, random_state=rng, format="csr")
    M = M - sp.diags(np.full(n, 0.5))  # push mass off the positive axis
    lam = np.max(np.abs(np.linalg.eigvals(M.toarray())))
    M = M * (rho / lam)
    return SparseOperator(M.tocsr())


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
# actions vs the oracle
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
    Z = SparseOperator(sp.csr_matrix((16, 16)))
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
    rect = SparseOperator(sp.csr_matrix(np.ones((3, 4))))
    with pytest.raises(InvalidArgumentError):
        phi0_action(rect, np.zeros(4), 1.0)


def test_restart_budget_exhaustion_raises_with_estimate(monkeypatch):
    # the product ceiling counts every step's products, s * K: below s * K
    # the action raises a typed error that still carries a positive
    # bound, below s it raises before building the weights, and at s * K
    # it runs
    A = _random_operator(40, 50.0, 9)        # not Metzler, beta - lam about 143
    v = np.random.default_rng(9).standard_normal(40)
    s, K = _steps_and_length(A, 10.0)
    assert s > 3
    monkeypatch.setattr(krylov, "_MAX_PRODUCTS", 3)
    krylov._step_weights.cache_clear()
    with pytest.raises(KrylovConvergenceError) as exc:
        phi0_action(A, v, 10.0)
    assert exc.value.est_error > 0
    assert krylov._step_weights.cache_info().currsize == 0
    monkeypatch.setattr(krylov, "_MAX_PRODUCTS", s * K - 1)
    with pytest.raises(KrylovConvergenceError,
                       match=rf"needs {s * K} products, more than the ceiling of {s * K - 1}$"
                       ) as exc:
        fused_action(A, v, v, 10.0)
    assert exc.value.est_error > 0
    monkeypatch.setattr(krylov, "_MAX_PRODUCTS", s * K)
    res = phi0_action(A, v, 10.0)
    assert res.restarts_used == s - 1 and res.products == s * K


def test_shipped_product_ceiling_raises_before_any_product(monkeypatch):
    # the ceiling at its shipped value, 550055 products: just past it,
    # through the step count s, the series length K or their product s * K,
    # an action raises before its first product, and the message names the
    # ceiling
    assert krylov._MAX_PRODUCTS == 550055
    rng = np.random.default_rng(55)
    calls = _spy_products(monkeypatch)
    # the P1 advection generator is not Metzler: dt(beta - lam) just past
    # the ceiling takes 550056 steps
    A = _non_metzler_generators()[1]
    P, beta, lam = A.uniformized_form
    with pytest.raises(KrylovConvergenceError,
                       match=r"needs more than the ceiling of 550055 products$"):
        phi0_action(A, rng.standard_normal(A.n_rows), 550055.5 / (beta - lam))
    # row sums 3: 8000 steps of about 100 products each
    G = _growing()
    dt = 8000.0 / 3.0
    s, K = _steps_and_length(G, dt)
    assert s * (dt / s * G.uniformized_form[1] - 1.0) < 550055 < s * K
    with pytest.raises(KrylovConvergenceError,
                       match=rf"needs {s * K} products, more than the ceiling of 550055$"):
        fused_action(G, rng.standard_normal(30), rng.standard_normal(30), dt)
    # row sums -1e6: lam = beta, about 1e6, and no growth
    M = _metzler(20, np.full(20, -1e6), 56, scale=1.0)
    P, beta, lam = M.uniformized_form
    assert lam == beta > 1e6
    u = rng.standard_normal(20)
    for dt in ((550055 + 1) / beta, 1.0):     # dt * beta - 1 >= 550055
        with pytest.raises(KrylovConvergenceError,
                           match=r"needs more than the ceiling of 550055 products$"):
            fused_action(M, u, u, dt)
    assert calls == []


def test_shifted_cache_under_threads():
    # threads that race to fill a fresh operator's uniformized form and the
    # Poisson weights get the serial results bit for bit, build one weight
    # entry for all of an action's steps and leave A's arrays alone
    rng = np.random.default_rng(41)
    fresh = lambda: _study_generators() + _non_metzler_generators()
    for A, serial in zip(fresh(), fresh()):
        krylov._step_weights.cache_clear()
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
        form = A.uniformized_form
        assert krylov._step_weights.cache_info().currsize == 1
        assert _weights_cached(form, 0.5)
        threaded_weights = _weights(form, 0.5)
        krylov._step_weights.cache_clear()    # the serial actions rebuild them
        for f, got in zip(fs, threaded):
            assert got.tobytes() == fused_action(serial, u, f, 0.5).vector.tobytes()
        for before, after in zip(arrays, (A.data, A.indices, A.indptr)):
            assert before.dtype == after.dtype and before.tobytes() == after.tobytes()
        assert form[0].data.tobytes() == serial.uniformized_form[0].data.tobytes()
        assert _weights_cached(form, 0.5)
        assert _weights(form, 0.5)[0] == threaded_weights[0]
    # the P1 advection generator at dt = 0.5 takes several steps
    assert _steps_and_length(serial, 0.5)[0] > 1


def _study_generators():
    grid = build_grid(8, 8, 1.0, 1.0)
    fem = assemble_fem(grid, 1.0).A   # Neumann, c0 = 0: singular
    fv = assemble_fv(grid, np.array([1e-2, 1e-3]), q_faces=(1.0, 0.25),
                     bc={BoundaryTag.LEFT: dirichlet(1.0)}).A
    assert np.any(np.diff(fv.indptr) == 0)  # frozen Dirichlet rows are empty
    return fem, fv


def _non_metzler_generators():
    """P1-FEM generators with negative off-diagonal entries, so P has
    entries of both signs."""
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
    return SparseOperator(M)


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


def _spy_products(monkeypatch, op=None):
    """Count in the returned list the phi actions' products with op (with
    any operator when op is None): their calls of the operator's product
    kernel, SparseOperator.add_product."""
    calls = []

    def kernel(A):
        add_product = sparse._product_kernel(A.to_scipy())
        if op is not None and A is not op:
            return add_product

        def counted(x, out):
            calls.append(None)
            return add_product(x, out)
        return counted

    monkeypatch.setattr(SparseOperator, "add_product", property(kernel))
    return calls


def _steps(form, dt):
    """The documented step count s = max(1, ceil(dt (beta - lam)))."""
    _, beta, lam = form
    return max(1, math.ceil(dt * (beta - lam)))


def _weights(form, dt):
    """The cached coefficients and tails of one step of an action over dt."""
    _, beta, lam = form
    h = dt / _steps(form, dt)
    return krylov._step_weights(h * beta, math.exp(h * (beta - lam)), lam / beta)


def _weights_cached(form, dt):
    """Whether the weights for step dt were cached before this call."""
    misses = krylov._step_weights.cache_info().misses
    _weights(form, dt)
    return krylov._step_weights.cache_info().misses == misses


def _steps_and_length(A, dt):
    """(s, K) of an action over dt: the documented step count and the
    smallest K with P(N >= K) <= 2^-53 for N ~ Poisson(dt beta / s),
    recomputed with scipy.stats."""
    s = _steps(A.uniformized_form, dt)
    x = dt / s * A.uniformized_form[1]
    K = next(k for k in range(1, 10 ** 6) if scipy.stats.poisson.sf(k - 1, x) <= 2.0 ** -53)
    return s, K


def _dense_uniformization(A, dt):
    """(x, lam, beta) of the documented rule, from the dense matrix."""
    D = A.dense()
    lam = max(-np.diag(D).min(), 0.0)
    beta = max(np.abs(D + lam * np.eye(D.shape[0])).sum(axis=1).max(), lam)
    return dt * beta, lam, beta


@pytest.mark.parametrize("dt", [1.0 / 1280, 1.0 / 40, 0.5])
def test_fused_action_matches_pade_expm(dt):
    # exp([[dt A, dt I], [0, 0]]) = [[exp(dt A), dt phi1(dt A)], [0, I]];
    # scipy's Pade expm shares no code with uniformization
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
    Z = SparseOperator(sp.csr_matrix((16, 16)))
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


def _growing():
    """A Metzler operator with row sums 3: e^{dt(beta - lam)} = e^{3 dt}, so
    an action over dt = 0.5 takes two steps."""
    return _metzler(30, np.full(30, 3.0), 6)


@pytest.mark.parametrize("dt", [1.0 / 1280, 1.0 / 40, 0.5])
def test_uniformized_actions_match_pade_expm(dt):
    # exp([[dt A, dt f], [0, 0]]) [u; 1] = phi0(dt A) u + dt phi1(dt A) f;
    # scipy's Pade expm shares no code with uniformization
    rng = np.random.default_rng(51)
    for A in _metzler_generators() + _non_metzler_generators() + (_growing(),):
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


def test_uniformized_series_length_and_bound(monkeypatch):
    # an action over dt takes s = max(1, ceil(dt (beta - lam))) steps of
    # h = dt / s, each exactly K products with P, K the smallest k with
    # P(N >= k) <= 2^-53 for N ~ Poisson(h * beta), recomputed with
    # scipy.stats; the bound is the sum of the documented Poisson tail
    # bounds of its steps, each with that step's ||u||_inf (from expm)
    rng = np.random.default_rng(52)
    several = 0
    for A in _metzler_generators() + _non_metzler_generators() + (_growing(),):
        n = A.n_rows
        P, beta, lam = A.uniformized_form
        x1, lam_d, beta_d = _dense_uniformization(A, 1.0)
        assert (lam, beta) == pytest.approx((lam_d, beta_d), rel=1e-14)
        D = (A.dense() + lam * np.eye(n)) / beta
        np.testing.assert_allclose(P.dense(), D, rtol=1e-15, atol=0)
        assert np.abs(P.dense()).sum(axis=1).max() <= 1 + 1e-15 and 0 <= lam / beta <= 1
        metzler = (A.dense() - np.diag(A.dense().diagonal())).min() >= 0
        assert (P.data.min() >= 0) == metzler
        calls = _spy_products(monkeypatch, P)
        for dt in (1e-6, 1.0 / 1280, 1.0 / 40, 0.5):
            s = max(1, math.ceil(dt * (beta_d - lam_d)))
            h = dt / s
            x = h * beta_d
            K = next(k for k in range(1, 10 ** 6)
                     if scipy.stats.poisson.sf(k - 1, x) <= 2.0 ** -53)
            u, f = rng.standard_normal(n), rng.standard_normal(n)
            for action, forcing in ((lambda: phi0_action(A, u, dt), np.zeros(n)),
                                    (lambda: fused_action(A, u, f, dt), f)):
                calls.clear()
                res = action()
                assert len(calls) == res.products == s * K
                assert res.restarts_used == s - 1
                M = np.zeros((n + 1, n + 1))
                M[:n, :n] = h * A.dense()
                M[:n, n] = h * forcing
                E = scipy.linalg.expm(M)
                bound, v = 0.0, u
                for _ in range(s):
                    bound += math.exp(h * (beta - lam)) * (
                        scipy.stats.poisson.sf(K, x) * np.abs(v).max()
                        + h * scipy.stats.poisson.sf(K - 1, x) * np.abs(forcing).max())
                    v = E[:n, :n] @ v + E[:n, n]
                assert 0 < res.est_error == pytest.approx(bound, rel=1e-6, abs=0)
            several += s > 1
    assert several == 2                      # the advection and growing ones at 0.5


def test_products_count_every_sparse_product(monkeypatch):
    # PhiResult.products is the number of sparse products the action took,
    # over all its steps, and 0 when it takes none (dt = 0, an empty
    # operator)
    rng = np.random.default_rng(57)
    calls = _spy_products(monkeypatch)
    for A in _study_generators() + _non_metzler_generators():
        n = A.n_rows
        u, f = rng.standard_normal(n), rng.standard_normal(n)
        for dt in (0.0, 1.0 / 1280, 1.0 / 40, 0.5):
            for action, args in ((phi0_action, (u,)), (phi1_action, (f,)),
                                 (fused_action, (u, f))):
                calls.clear()
                res = action(A, *args, dt)
                assert res.products == len(calls)
                assert (res.products > 0) == (dt > 0)
    empty = SparseOperator(sp.csr_matrix((5, 5)))
    assert fused_action(empty, np.ones(5), np.ones(5), 0.5).products == 0


def test_actions_leave_operands_alone_and_return_fresh_arrays(monkeypatch):
    # the series read the caller's u and f and write only buffers each
    # action owns: in one step or several, the operands keep their bytes, a
    # strided operand gives the contiguous one's bits, and no two results
    # share memory with each other or with an operand
    rng = np.random.default_rng(58)
    for A in (_study_generators()[1], _non_metzler_generators()[1]):
        calls = _spy_products(monkeypatch, A.uniformized_form[0])
        n = A.n_rows
        u, f = rng.standard_normal(n), rng.standard_normal(n)
        u0, f0 = u.copy(), f.copy()
        results = []
        for dt in (1.0 / 40, 0.5):
            for action, args in ((phi0_action, (u,)), (phi1_action, (f,)),
                                 (fused_action, (u, f))):
                res = action(A, *args, dt)
                strided = [np.repeat(a, 2)[::2] for a in args]
                assert action(A, *strided, dt).vector.tobytes() == res.vector.tobytes()
                results.append(res.vector)
        assert len(calls) > 0                # the products were taken with P
        assert u.tobytes() == u0.tobytes() and f.tobytes() == f0.tobytes()
        for i, a in enumerate(results):
            for b in results[i + 1:] + [u, f]:
                assert not np.shares_memory(a, b)
    assert res.restarts_used > 0             # the advection generator takes steps


def test_uniformized_product_ceiling_raises_with_estimate(monkeypatch):
    # on one step: K just above the ceiling and the ceiling at most x - 1
    # (raised before the weights are built) both raise with a positive
    # bound; at K the action runs
    A = build_problem(advection_study(heterogeneous=True, nx=8)).discrete.A
    v = np.random.default_rng(54).standard_normal(A.n_rows)
    s, K = _steps_and_length(A, 0.5)
    x, _, _ = _dense_uniformization(A, 0.5)
    assert s == 1 and x - 1 > 1
    for cap in (K - 1, 1):
        monkeypatch.setattr(krylov, "_MAX_PRODUCTS", cap)
        with pytest.raises(KrylovConvergenceError) as exc:
            fused_action(A, v, v, 0.5)
        assert exc.value.est_error > 0
        with pytest.raises(KrylovConvergenceError):
            phi0_action(A, v, 0.5)
    monkeypatch.setattr(krylov, "_MAX_PRODUCTS", K)
    res = fused_action(A, v, v, 0.5)
    assert res.restarts_used == 0 and res.products == K


def test_overflowing_action_raises_typed_error():
    # exp(10 A) of this strongly advective P1 generator overflows float64
    # (7999 steps, each with growth factor up to e): each action raises
    # the typed error with an infinite bound once a step's result is not
    # finite, and numpy warns nothing
    A = assemble_fem(build_grid(8, 8, 1.0, 1.0), 1e-3, velocity=(50.0, 20.0)).A
    rng = np.random.default_rng(59)
    u, f = rng.standard_normal(A.n_rows), rng.standard_normal(A.n_rows)
    assert _steps(A.uniformized_form, 10.0) == 7999
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for action, args in ((phi0_action, (u,)), (phi1_action, (f,)),
                             (fused_action, (u, f))):
            with pytest.raises(KrylovConvergenceError,
                               match=r"overflowed in step \d+ of 7999$") as exc:
                action(A, *args, 10.0)
            assert exc.value.est_error == math.inf


def test_horner_coefficients_sum_the_forcing_terms():
    # d_m = sum_{k > m} c_k r^(k - m - 1): the weight of P^m g in the
    # forward series y_k = P y_{k-1} + r^(k-1) g, out = sum c_k y_k
    for x, growth, ratio in ((0.3, 1.0, 1.0), (12.5, 2.2, 0.4), (40.0, 1.1, 0.0)):
        c, d, _ = krylov._step_weights(x, growth, ratio)
        K = len(c) - 1
        for m in range(K + 1):
            want = math.fsum(c[k] * ratio ** (k - m - 1) for k in range(m + 1, K + 1))
            assert d[m] == pytest.approx(want, rel=1e-14, abs=1e-300)


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
