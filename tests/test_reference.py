"""Exact spectral reference tests: the conditional convolution law against
a 50-digit mpmath oracle, distributional checks, and cross-validation of
the finest-path reference against the exact one."""

import math

import mpmath
import numpy as np
import pytest

from setd.errors import InvalidArgumentError
from setd.grid import build_grid
from setd.krylov import KrylovConfig
from setd.noise import NoiseSpec, eigenfunction_nodal, make_path, spectrum
from setd.operators import assemble_fem, quadrature_weights
from setd.reference import (
    conditional_convolution_params,
    evolve_exact,
    exact_linear_step,
    finest_reference,
    linear_state,
    spectral_to_nodal,
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


@pytest.mark.parametrize("mu", [0.0, 1e-9, 1e-3, 0.05, 0.0999, 0.1001, 0.5,
                                1.0, 10.437, 100.0, 5000.0])
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
        want = spectrum(spec, i, j) * -np.expm1(-2 * mu * dt) / (2 * mu)
        got = vals[:, k].var()
        # 5-sigma band for a variance estimate: rel error sqrt(2/n)
        assert got == pytest.approx(want, rel=5 * math.sqrt(2.0 / nsamp))
        assert abs(vals[:, k].mean()) < 5 * math.sqrt(want / nsamp)


def test_exact_step_couples_to_path_increments():
    # the conditional mean must be rho * (the same dbeta any scheme sees)
    spec = NoiseSpec.exponential(n1=3, n2=3)
    state = linear_state(spec)
    path = make_path(spec, 7, 0, 0.25, 4)
    st1 = exact_linear_step(state, path, 2, 0.25)
    dbeta = path.brownian_increment_modes(2)
    xi = path.aux_normals(2)
    rho, v = conditional_convolution_params(state.mu, 0.25)
    want = state.sqrt_q * (rho * dbeta + np.sqrt(v) * xi)
    np.testing.assert_allclose(st1.c, want, rtol=1e-14, atol=1e-16)


def test_refinement_consistency_in_law_and_mean():
    # evolving 4 fine steps vs 1 coarse step: same conditional-mean component
    # because the coarse dbeta is the bit-exact sum of the fine ones
    spec = NoiseSpec.exponential(n1=3, n2=3)
    path = make_path(spec, 21, 0, 0.125, 4)
    rho_c, _ = conditional_convolution_params(linear_state(spec).mu, 0.5)
    dbeta_c = path.brownian_increment_modes(0, coarsening=4)
    fine_sum = sum(path.brownian_increment_modes(s) for s in range(4))
    np.testing.assert_array_equal(dbeta_c, fine_sum)
    st = evolve_exact(linear_state(spec), path, steps=1, coarsening=4)
    assert st.t == pytest.approx(0.5)


def test_spectral_to_nodal_consistency():
    spec = NoiseSpec.exponential(n1=5, n2=5)
    grid = build_grid(10, 10, 1.0, 1.0)
    state = linear_state(spec)
    rng = np.random.default_rng(5)
    state.c = rng.standard_normal(state.c.shape)
    field = spectral_to_nodal(state, grid)
    want = sum(state.c[i, j] * eigenfunction_nodal(grid, i, j)
               for i in range(6) for j in range(6))
    np.testing.assert_allclose(field, want, rtol=1e-12, atol=1e-13)
    cells = spectral_to_nodal(state, grid, where="cells")
    assert cells.shape == (grid.cell_count,)


def test_finest_reference_agrees_with_exact_solution():
    # the nonlinear-problem surrogate, applied to the linear problem on a
    # fine path, must land close to the exact spectral solution: its own
    # strong error at finest_dt bounds the gap
    spec = NoiseSpec.exponential(n1=16, n2=16)
    grid = build_grid(12, 12, 1.0, 1.0)
    discrete = assemble_fem(grid, 1.0, c0=0.5)
    from setd.integrators import ProblemDef

    problem = ProblemDef(discrete=discrete, noise=spec, X0=np.zeros(discrete.ndof),
                         drift=lambda u: 0.0 * u, name="linear")
    w = quadrature_weights(grid, discrete.ndof)
    gaps = []
    scales = []
    for r in range(5):
        path = make_path(spec, 31, r, 1.0 / 256, 256)
        fin = finest_reference(problem, path, KrylovConfig())
        exact = spectral_to_nodal(evolve_exact(linear_state(spec), path), grid)
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
        exact_linear_step(st, path2, 0, 0.3)  # dt not coarsening x finest


@pytest.mark.parametrize("coarsening", [1, 2])
def test_evolve_exact_equals_loop_of_exact_steps(coarsening):
    # the per-call coefficients change no bit against per-step ones
    spec = NoiseSpec.exponential(n1=9, n2=7)
    finest_dt = 1.0 / 64
    mk = lambda: make_path(spec, 41, 2, finest_dt, 16)
    rng = np.random.default_rng(8)
    state0 = linear_state(spec, diffusion=0.7, reaction=0.3,
                          coefficients=rng.standard_normal((10, 8)))
    dt = coarsening * finest_dt
    got = evolve_exact(state0, mk(), coarsening=coarsening)
    path = mk()
    want = state0
    for m in range(16 // coarsening):
        want = exact_linear_step(want, path, m, dt, coarsening)
    assert got.c.tobytes() == want.c.tobytes()
    assert got.t == want.t
    # and both equal the transition written out per step
    path = mk()
    c = state0.c
    for m in range(16 // coarsening):
        rho, v = conditional_convolution_params(state0.mu, dt)
        conv = rho * path.brownian_increment_modes(m, coarsening) + np.sqrt(v) * path.aux_normals(m)
        c = np.exp(-state0.mu * dt) * c + state0.sqrt_q * conv
    assert got.c.tobytes() == c.tobytes()


def test_evolve_exact_rejects_bad_arguments():
    spec = NoiseSpec.exponential(n1=2, n2=2)
    st = linear_state(spec)
    path = make_path(spec, 0, 0, 0.25, 4)
    for kwargs in ({"coarsening": -1}, {"coarsening": 0}, {"steps": -2}):
        with pytest.raises(InvalidArgumentError):
            evolve_exact(st, path, **kwargs)
    with pytest.raises(InvalidArgumentError):
        evolve_exact(st, path, steps=3, coarsening=2)  # beyond the horizon
    with pytest.raises(InvalidArgumentError):
        evolve_exact(st, make_path(NoiseSpec.exponential(n1=3, n2=3), 0, 0, 0.25, 4))
    assert evolve_exact(st, path, steps=0).c.tobytes() == st.c.tobytes()
