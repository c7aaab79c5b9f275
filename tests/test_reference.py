"""Exact spectral reference tests: the conditional convolution law against
a 50-digit mpmath oracle, distributional checks, and cross-validation of
the finest-path reference against the exact one."""

import math

import mpmath
import numpy as np
import pytest

from setd import kernels
from setd.errors import InvalidArgumentError
from setd.grid import build_grid, site_xy
from setd.noise import NoiseSpec, make_path, modes_at_sites, sample_increment, spectrum_matrix
from setd.operators import assemble_fem, quadrature_weights
from setd.reference import (
    conditional_convolution_params,
    evolve_exact,
    exact_linear_step,
    finest_reference,
    linear_state,
)


def _mpmath_rho_v(mu, dt):
    """rho and v from exact arithmetic: rho = (1-e^-a)/a, v by the closed
    variance formula evaluated at 50 significant digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(mu) * mpmath.mpf(dt)
        if a == 0:
            return 1.0, 0.0
        rho = (1 - mpmath.e**-a) / a
        v = mpmath.mpf(dt) * ((1 - mpmath.e**(-2 * a)) / (2 * a)
                              - ((1 - mpmath.e**-a) / a) ** 2)
        return float(rho), float(v)


# negative mu is a growing mode (the (0,0) mode at a negative reaction):
# a = mu dt from -5 to -1e-7, on both sides of the series seam at |a| = 0.1
@pytest.mark.parametrize("mu", [0.0, 1e-9, 1e-3, 0.05, 0.0999, 0.1001, 0.5,
                                1.0, 10.437, 100.0, 5000.0,
                                -1e-5, -5.0, -9.99, -10.01, -50.0, -100.0, -500.0])
def test_conditional_params_against_mpmath(mu):
    dt = 0.01
    rho, v = conditional_convolution_params(np.array([mu]), dt)
    rho_ref, v_ref = _mpmath_rho_v(mu, dt)
    assert rho[0] == pytest.approx(rho_ref, rel=1e-12, abs=1e-15)
    assert v[0] == pytest.approx(v_ref, rel=1e-9, abs=1e-30)


def test_conditional_params_vectorized_and_limits():
    mu = np.array([0.0, 1.0, 10.0, 1000.0])
    dt = 0.125
    rho, v = conditional_convolution_params(mu, dt)
    assert rho[0] == 1.0 and v[0] == 0.0           # mu -> 0: I = dbeta exactly
    # mu dt large: rho -> 1/(mu dt), v -> 1/(2 mu) - 1/(mu^2 dt)
    assert rho[3] == pytest.approx(1.0 / (1000.0 * dt), rel=1e-10)
    assert v[3] == pytest.approx(1.0 / 2000.0 - 1.0 / (1000.0**2 * dt), rel=1e-10)
    assert np.all(v >= 0)
    with pytest.raises(InvalidArgumentError):
        conditional_convolution_params(mu, 0.0)


def test_variance_never_negative_across_seam():
    mu = np.linspace(1e-8, 400.0, 20001)
    _, v = conditional_convolution_params(mu, 1e-3)
    assert np.all(v >= 0)
    # both branches stay accurate right at the series/closed seam a = 0.1
    for a in (0.1 - 1e-9, 0.1 + 1e-9):
        _, got = conditional_convolution_params(np.array([a]), 1.0)
        _, want = _mpmath_rho_v(a, 1.0)
        assert got[0] == pytest.approx(want, rel=2e-10)


def test_one_step_law_monte_carlo():
    # from c = 0, one exact step has Var[c_ij] = q_ij (1 - e^(-2 mu dt))/(2 mu)
    spec = NoiseSpec.exponential(n1=4, n2=4)
    dt = 0.2
    nsamp = 20000
    probes = [(0, 0), (1, 0), (2, 2)]
    vals = np.empty((nsamp, len(probes)))
    state0 = linear_state(spec, diffusion=1.0, reaction=0.5)
    for r in range(nsamp):
        path = make_path(spec, 123, r, dt, 1)
        st = exact_linear_step(state0, path, 0, dt)
        vals[r] = [st.c[i, j] for i, j in probes]
    for k, (i, j) in enumerate(probes):
        mu = state0.mu[i, j]
        want = spectrum_matrix(spec)[i, j] * -np.expm1(-2 * mu * dt) / (2 * mu)
        got = vals[:, k].var()
        # 5-sigma band for a variance estimate: rel error sqrt(2/n)
        assert got == pytest.approx(want, rel=5 * math.sqrt(2.0 / nsamp))
        assert abs(vals[:, k].mean()) < 5 * math.sqrt(want / nsamp)


def test_exact_step_couples_to_path_increments():
    # on an unbound path every mode is its own class: the conditional mean
    # is rho * (the same dbeta any scheme sees), and the remainder is the
    # step's stream-1 block of one draw per class
    spec = NoiseSpec.exponential(n1=3, n2=3)
    state = linear_state(spec)
    path = make_path(spec, 7, 0, 0.25, 4)
    st1 = exact_linear_step(state, path, 2, 0.25)
    dbeta = path.brownian_increment_modes(2)
    xi = kernels.normal_block(*path._key, 16, 1, 2, 1).reshape(4, 4)
    rho, v = conditional_convolution_params(state.mu, 0.25)
    want = state.sqrt_q * (rho * dbeta + np.sqrt(v) * xi)
    np.testing.assert_allclose(st1.c, want, rtol=1e-14, atol=1e-16)


def test_refinement_consistency_in_law_and_mean():
    # the coarse dbeta is the bit-exact sum of the fine ones, and the
    # reference runs over the fine steps
    spec = NoiseSpec.exponential(n1=3, n2=3)
    path = make_path(spec, 21, 0, 0.125, 4)
    dbeta_c = path.brownian_increment_modes(0, coarsening=4)
    fine_sum = sum(path.brownian_increment_modes(s) for s in range(4))
    np.testing.assert_array_equal(dbeta_c, fine_sum)
    st = evolve_exact(linear_state(spec), path, steps=4)
    assert st.t == pytest.approx(0.5)


def test_spectral_to_nodal_consistency():
    # the projection the harness applies to the exact reference equals the
    # cosine series summed mode by mode at the site coordinates
    spec = NoiseSpec.exponential(n1=5, n2=5)
    grid = build_grid(10, 10, 1.0, 1.0)
    state = linear_state(spec)
    rng = np.random.default_rng(5)
    state.c = rng.standard_normal(state.c.shape)

    def e(k, t):
        return 1.0 if k == 0 else math.sqrt(2.0) * np.cos(k * np.pi * t)

    for where, count in (("nodes", grid.node_count), ("cells", grid.cell_count)):
        x, y = site_xy(grid, where)
        field = modes_at_sites(state.c, grid, where)
        want = sum(state.c[i, j] * e(i, x) * e(j, y) for i in range(6) for j in range(6))
        assert field.shape == (count,)
        np.testing.assert_allclose(field, want, rtol=1e-12, atol=1e-13)


def test_finest_reference_agrees_with_exact_solution():
    # the nonlinear-problem surrogate, applied to the linear problem on a
    # fine path, must land close to the exact spectral solution: its own
    # strong error at finest_dt bounds the gap. The path is bound to the
    # nodes, so its mode increments and its nodal fields are one Wiener path
    spec = NoiseSpec.exponential(n1=16, n2=16)
    grid = build_grid(12, 12, 1.0, 1.0)
    discrete = assemble_fem(grid, 1.0, c0=0.5)
    from setd.integrators import ProblemDef

    problem = ProblemDef(discrete=discrete, noise=spec, X0=np.zeros(discrete.ndof),
                         drift=lambda u: 0.0 * u)
    w = quadrature_weights(grid, discrete.ndof)
    gaps = []
    scales = []
    for r in range(5):
        path = make_path(spec, 31, r, 1.0 / 256, 256, sites=(grid, "nodes"))
        fin = finest_reference(problem, path)
        exact = modes_at_sites(evolve_exact(linear_state(spec), path).c, grid, "nodes")
        gaps.append(np.sqrt(np.sum(w * (fin - exact) ** 2)))
        scales.append(np.sqrt(np.sum(w * exact**2)))
    # the finest run carries O(sqrt(dt)) strong error ~ 0.06 at dt=1/256 on
    # this spectrum; demand the gap stays well under the field scale
    assert np.mean(gaps) < 0.5 * np.mean(scales)


def test_linear_state_validation():
    spec = NoiseSpec.exponential(n1=2, n2=2)
    with pytest.raises(InvalidArgumentError):
        linear_state(spec, coefficients=np.zeros((2, 2)))
    st = linear_state(spec, diffusion=2.0, reaction=0.25)
    assert st.mu[0, 0] == pytest.approx(0.25)
    assert st.mu[1, 0] == pytest.approx(2.0 * np.pi**2 + 0.25, rel=1e-13)
    path = make_path(NoiseSpec.exponential(n1=3, n2=3), 0, 0, 0.5, 2)
    with pytest.raises(InvalidArgumentError):
        exact_linear_step(st, path, 0, 0.5)   # spec mismatch
    path2 = make_path(spec, 0, 0, 0.5, 2)
    with pytest.raises(InvalidArgumentError):
        exact_linear_step(st, path2, 0, 0.3)  # dt is not finest_dt


@pytest.mark.parametrize("where", ["nodes", "cells"])
def test_evolve_exact_law_on_an_aliasing_lattice(where):
    # the mean recursion on the class draws plus the remainder drawn once
    # must give every mode the OU variance q (1 - e^{-2 mu T}) / (2 mu) and
    # no cross-mode covariance, on a lattice where 10 modes per axis fall
    # on 5 (nodes) or 4 (cells) classes. Each of the 100 variances and 4950
    # covariances is one z-score, held to 5.5 standard errors
    spec = NoiseSpec.exponential(n1=9, n2=9, b1=0.05, b2=0.05)
    grid = build_grid(4, 4, 1.0, 1.0)
    state = linear_state(spec)
    dt, steps, n = 1.0 / 64, 8, 4000
    var = (spectrum_matrix(spec) * -np.expm1(-2.0 * state.mu * dt * steps)
           / (2.0 * state.mu)).ravel()
    X = np.array([evolve_exact(state, make_path(spec, 3, r, dt, steps, sites=(grid, where))).c.ravel()
                  for r in range(n)])
    C = X.T @ X / n
    z_var = (np.diag(C) - var) / (var * math.sqrt(2.0 / n))
    z_cov = C / np.sqrt(np.outer(var, var) / n)
    np.fill_diagonal(z_cov, 0.0)
    assert np.abs(z_var).max() <= 5.5
    assert np.abs(z_cov).max() <= 5.5
    # a start c0 adds exp(-mu T) c0 on the same draws
    c0 = np.random.default_rng(8).standard_normal(state.c.shape)
    path = lambda: make_path(spec, 3, 0, dt, steps, sites=(grid, where))
    shift = (evolve_exact(linear_state(spec, coefficients=c0), path()).c
             - evolve_exact(state, path()).c)
    np.testing.assert_allclose(shift, np.exp(-state.mu * dt * steps) * c0, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("where", ["nodes", "cells"])
def test_reference_at_zero_rate_is_the_sum_of_the_fields(where):
    # at mu = 0 the remainder is invisible at the sites, so the reference's
    # cosine series is the sum of the fields the schemes consume; the limit
    # is sqrt(eps) noise from eigh of a singular covariance. The mode
    # increments are the stream-0 draws whatever the path is bound to
    grid = build_grid(5, 3, 1.0, 1.0)
    for spec in (NoiseSpec.exponential(n1=17, n2=11), NoiseSpec.powerlaw(n1=17, n2=11)):
        path = make_path(spec, 7, 1, 0.01, 8, sites=(grid, where))
        exact = modes_at_sites(evolve_exact(linear_state(spec, 0.0, 0.0), path).c, grid, where)
        field = sample_increment(path, grid, 0, 8, where)
        assert np.abs(exact - field).max() <= 1e-6 * np.abs(field).max()
        free = make_path(spec, 7, 1, 0.01, 8)
        for k in range(8):
            np.testing.assert_array_equal(path.brownian_increment_modes(k),
                                          free.brownian_increment_modes(k))


def test_evolve_exact_rejects_bad_arguments():
    spec = NoiseSpec.exponential(n1=2, n2=2)
    st = linear_state(spec)
    path = make_path(spec, 0, 0, 0.25, 4)
    with pytest.raises(InvalidArgumentError):
        evolve_exact(st, path, steps=-2)
    with pytest.raises(InvalidArgumentError):
        evolve_exact(st, path, steps=5)  # beyond the horizon
    with pytest.raises(InvalidArgumentError):
        evolve_exact(st, make_path(NoiseSpec.exponential(n1=3, n2=3), 0, 0, 0.25, 4))
    assert evolve_exact(st, path, steps=0).c.tobytes() == st.c.tobytes()
