"""Shipping acceptance checks.

Each test exercises one end-to-end guarantee at its stated tolerance and
wall-clock budget, and prints a single ``[criterion N] PASS/FAIL`` line
(visible under ``pytest -s`` and in the captured output of failures).
The tolerances and bands here are contracts, not tuning knobs: a red
line means the guarantee is not met, and the test stays red rather than
moving the goalposts.

Runtime note: criteria 3 and 4 run full desk-scale Monte-Carlo studies
(minutes, not seconds); everything else finishes in seconds.
"""

import time
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from setd.darcy import PermeabilityField, divergence, flux_balance, solve_darcy
from setd.grid import build_grid, cell_xy
from setd.harness import advection_study, linear_additive_study, run_study
from setd.integrators import ProblemDef, Scheme, SchemeConfig, setdm1_step
from setd.krylov import dense_phi, phi0_action, phi1_action
from setd.noise import NoiseSpec, make_path
from setd.operators import assemble_fem
from setd.reference import exact_linear_step, linear_state
from setd.sparse import SparseOperator


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _random_operator(n, rho, seed, density=0.1):
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=density, random_state=rng, format="csr")
    M = M - sp.diags(np.full(n, 0.5))
    lam = np.max(np.abs(np.linalg.eigvals(M.toarray())))
    return SparseOperator((M * (rho / lam)).tocsr())


def test_criterion_1_phi_actions_match_dense_oracle():
    # 50 random sparse matrices, n=64, spectral radius <= 10: both phi
    # actions agree with the dense Taylor oracle to 1e-8 relative using
    # the shipped phi actions (scaling steps as needed).
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for case in range(50):
        rho = 0.2 + 9.8 * rng.random()
        A = _random_operator(64, rho, seed=1000 + case)
        v = rng.standard_normal(64)
        dense = A.dense()
        for k, action in ((0, phi0_action), (1, phi1_action)):
            want = dense_phi(dense, k, 1.0) @ v
            got = action(A, v, 1.0).vector
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _verdict(1, ok, f"phi0/phi1 vs dense oracle, worst rel err {worst:.2e} "
                    f"(tol 1e-8) over 50 matrices; {elapsed:.1f}s < 30s")
    assert worst <= 1e-8, f"worst relative phi-action error {worst:.3e} exceeds 1e-8"
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"


def test_criterion_2_exponential_steps_exact_on_linear_problem():
    # Deterministic linear problem with the reaction folded into the
    # operator (c0 term): 10 SETDM1 steps with zero noise must reproduce
    # the dense matrix exponential within 10 * steps * 1e-6.
    t0 = time.perf_counter()
    grid = build_grid(8, 8, 1.0, 1.0)
    discrete = assemble_fem(grid, 1.0, c0=0.5)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(discrete.ndof)
    x0 /= np.linalg.norm(x0)
    problem = ProblemDef(discrete=discrete, noise=NoiseSpec.exponential(n1=4, n2=4),
                         X0=x0)
    cfg = SchemeConfig(Scheme.SETDM1, dt=0.1, steps=10)
    x = x0.copy()
    zero = np.zeros(discrete.ndof)
    for _ in range(cfg.steps):
        x = setdm1_step(problem, cfg, x, zero)
    want = scipy.linalg.expm(cfg.dt * cfg.steps * discrete.A.dense()) @ x0
    err = float(np.linalg.norm(x - want))
    bound = 10 * cfg.steps * 1e-6
    elapsed = time.perf_counter() - t0
    ok = err <= bound and elapsed < 5.0
    _verdict(2, ok, f"10 noise-free SETDM1 steps vs dense expm, err {err:.2e} "
                    f"<= {bound:.0e}; {elapsed:.1f}s < 5s")
    assert err <= bound, f"linear-exactness defect {err:.3e} exceeds {bound:.1e}"
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s (budget 5s)"


def test_criterion_3_additive_noise_temporal_order():
    # Reaction-diffusion with additive smooth noise on the 1/32 grid,
    # 10 realizations, dt in {1/160..1/1280}, exact spectral reference.
    # Contract: fitted temporal order in [0.75, 1.0] for all three
    # schemes. The rate is asymptotic in dt: modes with mu*dt > 1 are
    # unresolved, and their error saturates near q/(2 mu) whatever dt
    # is. On {1/10..1/160} those noise-carrying modes hold most of the
    # squared error, and the orders sit near 0.5; a mode-sum law
    # predicts 0.45-0.49 there and 0.84-0.87 on the range used here.
    t0 = time.perf_counter()
    study = linear_additive_study(
        nx=32, realizations=10, seed=20240901,
        dt_list=(Fraction(1, 160), Fraction(1, 320), Fraction(1, 640), Fraction(1, 1280)),
        finest_dt=Fraction(1, 1280),
    )
    report = run_study(study)
    elapsed = time.perf_counter() - t0
    orders = {s: report.fitted_orders[s] for s in ("setdm0", "setdm1", "semi_implicit")}
    shown = " ".join(f"{k}={v:.4f}" for k, v in orders.items())
    in_band = all(v is not None and 0.75 <= v <= 1.0 for v in orders.values())
    ok = in_band and elapsed < 600.0
    _verdict(3, ok, f"additive-noise study fitted orders {shown} "
                    f"(band [0.75, 1.0]); {elapsed:.0f}s < 600s")
    assert in_band, f"fitted orders {shown} outside the contracted band [0.75, 1.0]"
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.0f}s (budget 600s)"


def test_criterion_4_multiplicative_noise_temporal_order():
    # Advection-diffusion-reaction in a homogeneous medium with
    # multiplicative rough noise on the 1/32 grid, 20 realizations,
    # finest-path SETDM1 reference at dt=1/1600. Contract: fitted order
    # in [0.4, 0.75] for both exponential schemes.
    t0 = time.perf_counter()
    study = advection_study(heterogeneous=False, nx=32, realizations=20, seed=20240902)
    report = run_study(study)
    elapsed = time.perf_counter() - t0
    orders = {s: report.fitted_orders[s] for s in ("setdm0", "setdm1")}
    shown = " ".join(f"{k}={v:.4f}" for k, v in orders.items())
    in_band = all(v is not None and 0.4 <= v <= 0.75 for v in orders.values())
    flagged = sum(row.flagged_count for row in report.rows)
    ok = in_band and flagged == 0 and elapsed < 1800.0
    _verdict(4, ok, f"multiplicative-noise study fitted orders {shown} "
                    f"(band [0.4, 0.75]), {flagged} flagged cells; "
                    f"{elapsed:.0f}s < 1800s")
    assert in_band, f"fitted orders {shown} outside the contracted band [0.4, 0.75]"
    assert flagged == 0, f"{flagged} diverged study cells"
    assert elapsed < 1800.0, f"criterion 4 took {elapsed:.0f}s (budget 1800s)"


def test_criterion_5_darcy_pressure_and_flux():
    # Constant permeability must reproduce p = 1 - x with unit uniform
    # flux to 1e-10; the three-streak medium must be discretely
    # divergence-free cell by cell and balance inflow/outflow.
    t0 = time.perf_counter()
    grid = build_grid(32, 32, 1.0, 1.0)
    p, vel = solve_darcy(PermeabilityField.homogeneous(grid, 1.0), p_left=1.0, p_right=0.0)
    cx, _ = cell_xy(grid)
    p_err = float(np.abs(p - (1.0 - cx)).max())
    q_err = float(max(np.abs(vel.qx - 1.0).max(), np.abs(vel.qy).max()))

    p2, vel2 = solve_darcy(PermeabilityField.streaks(grid, contrast=100.0))
    qmax = max(np.abs(vel2.qx).max(), np.abs(vel2.qy).max())
    div_max = float(np.abs(divergence(grid, vel2)).max())
    inflow, outflow = flux_balance(grid, vel2)
    balance = abs(inflow - outflow) / max(abs(inflow), abs(outflow))
    elapsed = time.perf_counter() - t0
    ok = (p_err <= 1e-10 and q_err <= 1e-10
          and div_max <= 1e-10 * qmax and balance <= 1e-10 and elapsed < 10.0)
    _verdict(5, ok, f"uniform medium |p-(1-x)| {p_err:.1e}, |q-(1,0)| {q_err:.1e}; "
                    f"streaks div {div_max:.1e} <= 1e-10*{qmax:.2f}, "
                    f"flux balance {balance:.1e}; {elapsed:.1f}s < 10s")
    assert p_err <= 1e-10 and q_err <= 1e-10, "uniform-medium solve is not exact"
    assert div_max <= 1e-10 * qmax, f"divergence {div_max:.3e} vs bound {1e-10 * qmax:.3e}"
    assert balance <= 1e-10, f"flux imbalance {balance:.3e}"
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.1f}s (budget 10s)"


def test_criterion_6_noise_refinement_bit_exact():
    # Coarse Brownian increments equal the ordered sums of their fine
    # increments bit for bit, across coarsening factors {2,4,8,16} and
    # 1000 random (mode, step) probes.
    t0 = time.perf_counter()
    spec = NoiseSpec.exponential(n1=32, n2=32)
    path = make_path(spec, seed=11, realization=0, finest_dt=1.0 / 128, steps=128)
    rng = np.random.default_rng(3)
    factors = (2, 4, 8, 16)
    mismatches = 0
    for _ in range(1000):
        c = factors[rng.integers(len(factors))]
        i = int(rng.integers(spec.n1 + 1))
        j = int(rng.integers(spec.n2 + 1))
        s = int(rng.integers(path.steps // c))
        coarse = path.brownian_increment(i, j, s, coarsening=c)
        acc = path.brownian_increment(i, j, s * c, 1)
        for k in range(1, c):
            acc += path.brownian_increment(i, j, s * c + k, 1)
        if coarse != acc:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(6, ok, f"coarse==sum(fine) bit-exact, {mismatches}/1000 mismatches "
                    f"over factors {factors}; {elapsed:.1f}s < 5s")
    assert mismatches == 0, f"{mismatches} refinement probes broke bit-exactness"
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.1f}s (budget 5s)"


def test_criterion_7_spectral_reference_conditional_law():
    # One exact spectral step writes c+ = e^{-mu dt} c + sqrt(q) I with
    # I | dbeta ~ N(rho dbeta, v). Marginally I has mean 0, variance
    # (1-e^{-2a})/(2 mu), and covariance (1-e^{-a})/mu with dbeta
    # (a = mu dt). Checked within 3 standard errors at 1e5 samples per
    # probe for a in {0.01, 0.5, 10}, which also straddles the
    # series/closed-form switch at a = 0.1.
    t0 = time.perf_counter()
    dt, steps = 0.1, 10
    # (99+1)^2 modes x 10 steps = 1e5 samples; the law of I is
    # q-independent, so the decay is flattened (b=0.02) to keep every
    # mode amplitude away from underflow when normalizing.
    spec = NoiseSpec.exponential(n1=99, n2=99, b1=0.02, b2=0.02)
    worst = 0.0
    details = []
    for probe, a in enumerate((0.01, 0.5, 10.0)):
        mu = a / dt
        state = linear_state(spec, diffusion=0.0, reaction=mu)
        path = make_path(spec, seed=907 + probe, realization=0, finest_dt=dt, steps=steps)
        conv_samples = []
        dbeta_samples = []
        for m in range(steps):
            dbeta = path.brownian_increment_modes(m)
            stepped = exact_linear_step(state, path, m, dt)
            conv = (stepped.c - np.exp(-a) * state.c) / state.sqrt_q
            conv_samples.append(conv.ravel())
            dbeta_samples.append(dbeta.ravel())
            state = stepped
        I = np.concatenate(conv_samples)
        db = np.concatenate(dbeta_samples)
        n = I.size
        var_true = -np.expm1(-2.0 * a) / (2.0 * mu)
        cov_true = -np.expm1(-a) / mu
        z_mean = abs(I.mean()) / np.sqrt(var_true / n)
        z_var = abs(np.mean(I * I) - var_true) / (var_true * np.sqrt(2.0 / n))
        z_cov = abs(np.mean(I * db) - cov_true) / np.sqrt(
            (var_true * dt + cov_true**2) / n)
        worst = max(worst, z_mean, z_var, z_cov)
        details.append(f"a={a:g}: z=({z_mean:.2f},{z_var:.2f},{z_cov:.2f})")
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and elapsed < 60.0
    _verdict(7, ok, f"conditional-law stats within 3 SE at 1e5 samples "
                    f"[{'; '.join(details)}]; {elapsed:.1f}s < 60s")
    assert worst <= 3.0, f"worst z-score {worst:.2f} exceeds 3 standard errors"
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s (budget 60s)"


def test_criterion_8_reports_bit_identical_across_thread_counts(tmp_path):
    # The same study config run with different worker thread counts must
    # produce byte-identical report.csv files.
    t0 = time.perf_counter()

    def run_with(threads):
        study = linear_additive_study(
            nx=8, realizations=4, seed=5, threads=threads,
            dt_list=(Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)),
            finest_dt=Fraction(1, 32),
            noise=NoiseSpec.exponential(n1=16, n2=16),
        )
        out = tmp_path / f"report_t{threads}.csv"
        run_study(study).to_csv(out)
        return out.read_bytes()

    serial = run_with(1)
    pooled = run_with(4)
    elapsed = time.perf_counter() - t0
    ok = serial == pooled
    _verdict(8, ok, f"report.csv identical for 1 vs 4 threads "
                    f"({len(serial)} bytes); {elapsed:.1f}s")
    assert serial == pooled, "report.csv differs across thread counts"
