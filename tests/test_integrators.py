"""Scheme step tests against dense phi-matrix formulas, statistical mean
preservation, and the run() bookkeeping."""

import numpy as np
import pytest
import scipy.stats

from setd.errors import DivergenceError, InvalidArgumentError, SETDError, SolverError
from setd.grid import BoundaryTag, build_grid
from setd.integrators import (
    ProblemDef,
    Scheme,
    SchemeConfig,
    Trajectory,
    make_implicit_solver,
    run,
    semi_implicit_step,
    setdm0_step,
    setdm1_step,
)
from setd.krylov import dense_phi
from setd.noise import NoiseSpec, make_path, sample_increment
from setd.operators import FaceVelocities, assemble_fem, assemble_fv

def _linear_problem(nx=6, c0=0.5, drift=None, dispersion=None, X0=None):
    grid = build_grid(nx, nx, 1.0, 1.0)
    discrete = assemble_fem(grid, 1.0, c0=c0)
    spec = NoiseSpec.exponential(n1=8, n2=8)
    if X0 is None:
        X0 = np.zeros(discrete.ndof)
    return ProblemDef(discrete=discrete, noise=spec, X0=X0,
                      drift=drift, dispersion=dispersion)


def test_setdm0_step_matches_dense_formula():
    problem = _linear_problem(drift=lambda u: -0.3 * u)
    cfg = SchemeConfig(Scheme.SETDM0, dt=0.125, steps=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(problem.discrete.ndof)
    dW = rng.standard_normal(problem.discrete.ndof) * 0.1
    got = setdm0_step(problem, cfg, x, dW)
    A = problem.discrete.A.to_scipy().toarray()
    want = dense_phi(A, 0, cfg.dt) @ (x + cfg.dt * (-0.3 * x) + dW)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.linalg.norm(want))


def test_setdm1_step_matches_dense_formula():
    problem = _linear_problem(drift=lambda u: -0.3 * u, dispersion=lambda u: 1.0 + 0.1 * u)
    cfg = SchemeConfig(Scheme.SETDM1, dt=0.125, steps=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(problem.discrete.ndof)
    dW = rng.standard_normal(problem.discrete.ndof) * 0.1
    got = setdm1_step(problem, cfg, x, dW)
    A = problem.discrete.A.to_scipy().toarray()
    noise = (1.0 + 0.1 * x) * dW
    want = dense_phi(A, 0, cfg.dt) @ (x + noise) + cfg.dt * (dense_phi(A, 1, cfg.dt) @ (-0.3 * x))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.linalg.norm(want))


def test_semi_implicit_scalar_resolvent():
    # F = 0, B = 0, diagonal A = diag(-lam): X+ = X / (1 + dt lam) per component
    import scipy.sparse as sp

    from setd.sparse import SparseOperator

    grid = build_grid(2, 1, 1.0, 1.0)  # placeholder discrete problem container
    discrete = assemble_fem(grid, 1.0)
    lam = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    discrete.A = SparseOperator(sp.diags(-lam).tocsr())
    discrete.dirichlet_mask = np.zeros(6, dtype=bool)
    discrete.dirichlet_values = np.zeros(6)
    problem = ProblemDef(discrete=discrete, noise=NoiseSpec.exponential(n1=2, n2=2),
                         X0=np.zeros(6))
    cfg = SchemeConfig(Scheme.SEMI_IMPLICIT_EULER, dt=0.25, steps=1)
    x = np.arange(1.0, 7.0)
    got = semi_implicit_step(problem, cfg, x, np.zeros(6))
    np.testing.assert_allclose(got, x / (1.0 + 0.25 * lam), rtol=1e-12)


def test_semi_implicit_solver_reuse_matches_fresh():
    problem = _linear_problem()
    cfg = SchemeConfig(Scheme.SEMI_IMPLICIT_EULER, dt=0.1, steps=1)
    solver = make_implicit_solver(problem.discrete, cfg.dt)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(problem.discrete.ndof)
    dW = rng.standard_normal(problem.discrete.ndof) * 0.1
    np.testing.assert_array_equal(
        semi_implicit_step(problem, cfg, x, dW, solver),
        semi_implicit_step(problem, cfg, x, dW),
    )


def test_implicit_solve_rejects_a_nan_residual():
    # a NaN right-hand side gives a NaN residual, which breaks the 1e-10
    # contract; a zero right-hand side has residual 0 and passes
    solve = make_implicit_solver(assemble_fem(build_grid(4, 4, 1, 1), 1.0), 0.1)
    with pytest.raises(SolverError):
        solve(np.full(25, np.nan))
    assert not solve(np.zeros(25)).any()


def test_linear_exactness_over_many_steps():
    # F = 0, B = 0: SETDM1 propagates by exp(dt A) exactly (up to Krylov tol);
    # after n steps the state is exp(n dt A) X0
    problem = _linear_problem(nx=4, c0=0.5)
    rng = np.random.default_rng(4)
    X0 = rng.standard_normal(problem.discrete.ndof)
    problem.X0 = X0
    spec = problem.noise
    # zero-noise path: use dispersion that kills the increments
    problem.dispersion = lambda u: np.zeros_like(u)
    path = make_path(spec, 0, 0, 0.1, 10)
    cfg = SchemeConfig(Scheme.SETDM1, dt=0.1, steps=10)
    out = run(problem, cfg, path).final
    A = problem.discrete.A.to_scipy().toarray()
    want = dense_phi(A, 0, 1.0) @ X0
    np.testing.assert_allclose(out, want, rtol=0, atol=10 * 10 * 1e-10 * np.linalg.norm(X0))


def test_additive_mean_preservation():
    # E[X_m] for additive noise follows the deterministic ETD recursion; with
    # X0 = 0 and F = 0 the mean stays 0. t-test the node-averaged mean.
    problem = _linear_problem(nx=4, c0=0.5)
    cfg = SchemeConfig(Scheme.SETDM1, dt=0.25, steps=4)
    means = []
    for r in range(200):
        path = make_path(problem.noise, 77, r, 0.25, 4)
        means.append(run(problem, cfg, path).final.mean())
    t = np.mean(means) / (np.std(means, ddof=1) / np.sqrt(len(means)))
    # two-sided 99.9% acceptance band
    assert abs(t) < scipy.stats.t.ppf(0.9995, len(means) - 1)


def test_divergence_guard():
    problem = _linear_problem(drift=lambda u: 1e13 + 0.0 * u)  # forces blow-up
    path = make_path(problem.noise, 0, 0, 0.5, 2)
    cfg = SchemeConfig(Scheme.SETDM1, dt=0.5, steps=2)
    with pytest.raises(DivergenceError) as exc:
        run(problem, cfg, path)
    assert exc.value.step == 1


def _nan_drift(u):
    """-u with one NaN entry, at DOF 5."""
    return np.where(np.arange(u.size) == 5, np.nan, -u)


@pytest.mark.parametrize("scheme, kind", [(Scheme.SETDM0, InvalidArgumentError),
                                          (Scheme.SETDM1, InvalidArgumentError),
                                          (Scheme.SEMI_IMPLICIT_EULER, SolverError)])
def test_nan_drift_keeps_its_failure_kind(scheme, kind):
    # a drift that returns NaN fails in the first step: the phi action
    # rejects its operand, the implicit solve its NaN residual; neither is
    # reported as a divergence
    problem = _linear_problem(nx=4, drift=_nan_drift)
    path = make_path(problem.noise, 0, 0, 0.25, 4)
    with pytest.raises(SETDError) as exc:
        run(problem, SchemeConfig(scheme, 0.25, 4), path)
    assert type(exc.value) is kind


def test_dirichlet_dofs_pinned_through_run():
    grid = build_grid(6, 6, 1.0, 1.0)
    discrete = assemble_fv(grid, np.array([1e-2, 1e-3]),
                           q_faces=FaceVelocities.constant(grid, 1.0, 0.0),
                           dirichlet={BoundaryTag.LEFT: 1.0})
    spec = NoiseSpec.powerlaw(n1=8, n2=8)
    problem = ProblemDef(discrete=discrete, noise=spec, X0=np.zeros(discrete.ndof),
                         drift=lambda u: -u / (np.abs(u) + 1.0), dispersion=lambda u: u)
    path = make_path(spec, 1, 0, 0.125, 8)
    for scheme in Scheme:
        cfg = SchemeConfig(scheme, dt=0.125, steps=8)
        out = run(problem, cfg, path).final
        np.testing.assert_array_equal(out[discrete.dirichlet_mask], 1.0)
        assert np.all(np.isfinite(out))


def test_steps_and_run_write_no_caller_array():
    # the Dirichlet masking and pinning happen in place, but only on arrays
    # the library made: a drift that returns its argument, the caller's dW
    # and X0 and the path's cached fields all stay as they were
    grid = build_grid(6, 6, 1.0, 1.0)
    discrete = assemble_fv(grid, np.array([1e-2, 1e-3]),
                           q_faces=FaceVelocities.constant(grid, 1.0, 0.0),
                           dirichlet={BoundaryTag.LEFT: 1.0})
    spec = NoiseSpec.powerlaw(n1=8, n2=8)
    problem = ProblemDef(discrete=discrete, noise=spec, X0=np.linspace(-2.0, 3.0, discrete.ndof),
                         drift=lambda u: u, dispersion=None)
    X0 = problem.X0.copy()
    path = make_path(spec, 1, 0, 0.125, 8)
    fields = [sample_increment(path, grid, m, 1, discrete.where) for m in range(8)]
    assert np.all(fields[0][discrete.dirichlet_mask] != 0.0)
    for scheme, step in ((Scheme.SETDM0, setdm0_step), (Scheme.SETDM1, setdm1_step),
                         (Scheme.SEMI_IMPLICIT_EULER, semi_implicit_step)):
        cfg = SchemeConfig(scheme, dt=0.125, steps=8)
        dW = fields[0].copy()
        step(problem, cfg, problem.X0, dW)
        assert dW.tobytes() == fields[0].tobytes()
        assert problem.X0.tobytes() == X0.tobytes()
        run(problem, cfg, path)
        assert problem.X0.tobytes() == X0.tobytes()
        for m, field in enumerate(fields):
            assert sample_increment(path, grid, m, 1, discrete.where).tobytes() == field.tobytes()


def test_run_validation_and_bookkeeping():
    problem = _linear_problem(nx=4)
    path = make_path(problem.noise, 0, 0, 0.125, 8)
    # noise spec mismatch
    other = ProblemDef(discrete=problem.discrete, noise=NoiseSpec.powerlaw(n1=8, n2=8),
                       X0=problem.X0)
    with pytest.raises(InvalidArgumentError):
        run(other, SchemeConfig(Scheme.SETDM1, 0.125, 8), path)
    # dt not a multiple of finest_dt
    with pytest.raises(InvalidArgumentError):
        run(problem, SchemeConfig(Scheme.SETDM1, 0.2, 5), path)
    # horizon overrun
    with pytest.raises(InvalidArgumentError):
        run(problem, SchemeConfig(Scheme.SETDM1, 0.25, 5), path)
    # steps = 0 returns the Dirichlet-applied initial state
    out = run(problem, SchemeConfig(Scheme.SETDM1, 0.125, 0), path)
    assert isinstance(out, Trajectory)
    np.testing.assert_array_equal(out.final, problem.X0)
    # snapshots: initial state plus every second step
    traj = run(problem, SchemeConfig(Scheme.SETDM1, 0.125, 4), path, snapshot_every=2)
    assert [s for s, _ in traj.snapshots] == [0, 2, 4]
    np.testing.assert_array_equal(traj.snapshots[-1][1], traj.final)
    assert run(problem, SchemeConfig(Scheme.SETDM1, 0.125, 4), path).snapshots == []
    # a snapshot interval is a positive integer; 0 or -2 used to keep none silently
    for bad in (0, -2, 2.0, True, "2"):
        with pytest.raises(InvalidArgumentError, match="snapshot_every"):
            run(problem, SchemeConfig(Scheme.SETDM1, 0.125, 4), path, snapshot_every=bad)


def test_noise_domain_must_be_the_grids():
    # the unit-square spectrum on a 2 x 2 grid used to run silently
    discrete = assemble_fem(build_grid(4, 4, 2.0, 2.0), 1.0)
    with pytest.raises(InvalidArgumentError, match="domain"):
        ProblemDef(discrete=discrete, noise=NoiseSpec.exponential(n1=4, n2=4),
                   X0=np.zeros(discrete.ndof))
    ProblemDef(discrete=discrete, noise=NoiseSpec.exponential(n1=4, n2=4, L1=2.0, L2=2.0),
               X0=np.zeros(discrete.ndof))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_run_derives_its_coarsening_from_dt(scheme):
    # a step of dt = c finest_dt sums c fine increments: run gives the same
    # bytes as stepping by hand on sample_increment at coarsening c
    problem = _linear_problem(nx=4, drift=lambda u: -0.3 * u)
    path = make_path(problem.noise, 4, 0, 0.0625, 8)
    grid, where = problem.discrete.grid, problem.discrete.where
    step = {Scheme.SETDM0: setdm0_step, Scheme.SETDM1: setdm1_step,
            Scheme.SEMI_IMPLICIT_EULER: semi_implicit_step}[scheme]
    for c in (1, 2, 4):
        cfg = SchemeConfig(scheme, 0.0625 * c, 8 // c)
        x = problem.X0.copy()
        for m in range(cfg.steps):
            x = step(problem, cfg, x, sample_increment(path, grid, m, c, where))
        assert run(problem, cfg, path).final.tobytes() == x.tobytes()
    # a dt that is not a whole number of fine steps does not run as one
    for ratio in (0.5, 1.5):
        with pytest.raises(InvalidArgumentError, match="dt must be"):
            run(problem, SchemeConfig(scheme, 0.0625 * ratio, 1), path)


def test_coarsened_run_consumes_same_path():
    # one SETDM0 step at dt equals the dense formula applied to the summed
    # fine increments — the coupling the convergence studies rely on
    problem = _linear_problem(nx=4, c0=0.5)
    path = make_path(problem.noise, 9, 0, 0.0625, 16)
    cfg = SchemeConfig(Scheme.SETDM0, dt=0.25, steps=1)
    got = run(problem, cfg, path).final
    grid = problem.discrete.grid
    dW = sum(sample_increment(path, grid, s) for s in range(4))
    A = problem.discrete.A.to_scipy().toarray()
    want = dense_phi(A, 0, 0.25) @ dW
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.linalg.norm(want))


def test_scheme_config_validation():
    with pytest.raises(InvalidArgumentError):
        SchemeConfig("setdm1", 0.1, 1)
    with pytest.raises(InvalidArgumentError):
        SchemeConfig(Scheme.SETDM1, -0.1, 1)
    with pytest.raises(InvalidArgumentError):
        SchemeConfig(Scheme.SETDM1, 0.1, -1)
    for dt in ("0.1", None):                 # not a number: no bare TypeError
        with pytest.raises(InvalidArgumentError, match="dt"):
            SchemeConfig(Scheme.SETDM1, dt, 1)
    for steps in (None, 2.0, "1"):
        with pytest.raises(InvalidArgumentError, match="steps"):
            SchemeConfig(Scheme.SETDM1, 0.1, steps)
    cfg = SchemeConfig(Scheme.SETDM1, 0.1, 1)
    assert (cfg.scheme, cfg.dt, cfg.steps) == (Scheme.SETDM1, 0.1, 1)
