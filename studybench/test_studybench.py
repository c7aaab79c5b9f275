"""Tests of the benchmark's own checks, tracing and accounting.

    python3 -m pytest studybench -q

Each correctness check is shown to reject a wrong answer; the mode-sum law
reproduces the figures recorded for it in CHANGES.md.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
from tracing import Tracer, layer_metrics

COARSE = [Fraction(1, d) for d in (10, 20, 40, 80, 160)]
FINE = [Fraction(1, d) for d in (160, 320, 640, 1280)]


@pytest.fixture(scope="module")
def setd():
    module = bench.load_setd()
    assert module is not None, "setd not importable from src/"
    return module


def test_law_reproduces_recorded_figures():
    law = checks.mode_sum_law(COARSE, 1)
    rms = {s: np.sqrt(ms) for s, (ms, _) in law.items()}
    assert round(rms["setdm0"][0], 3) == 0.312
    assert round(rms["setdm0"][-1], 3) == 0.088
    orders = {s: checks.fitted_order(COARSE, e) for s, e in rms.items()}
    assert [round(orders[s], 2) for s in checks.SCHEMES] == [0.45, 0.45, 0.49]
    fine = {s: checks.fitted_order(FINE, np.sqrt(ms))
            for s, (ms, _) in checks.mode_sum_law(FINE, 1).items()}
    assert [round(fine[s], 2) for s in checks.SCHEMES] == [0.87, 0.87, 0.84]


def test_law_band_holds_for_the_law_and_rejects_wrong_errors():
    ms, var = checks.mode_sum_law(FINE, Fraction(1, 16), nx=32)["setdm1"]
    lo, hi = checks.law_band(ms, var, 4)
    rms = np.sqrt(ms)
    assert np.all((lo < rms) & (rms < hi))
    assert not np.any((lo <= 1.6 * rms) & (1.6 * rms <= hi))
    assert not np.any((lo <= 0.6 * rms) & (0.6 * rms <= hi))


def test_law_band_covers_simulated_realizations():
    # Draw the per-mode Gaussian errors the law describes: every simulated
    # R = 4 mean lies in the band (it promises p = 1e-6), and the band is
    # no wider than the simulated spread calls for.
    dt = [Fraction(1, 160)]
    law = checks.mode_sum_law(dt, Fraction(1, 16), nx=32, schemes=("setdm0",))
    ms, var = law["setdm0"]
    i = np.arange(65)
    k2 = (i[:, None] ** 2 + i[None, :] ** 2).ravel()
    rng = np.random.default_rng(7)
    sigma2 = _per_mode_sigma2(k2)
    assert np.isclose(sigma2.sum(), ms[0], rtol=1e-12)
    lo, hi = checks.law_band(ms, var, 4)
    big = sigma2 > 1e-12 * sigma2.max()
    s = rng.standard_normal((4000, 4, big.sum())) ** 2 @ sigma2[big]
    rms = np.sqrt(s.mean(axis=1))
    assert np.all((lo[0] <= rms) & (rms <= hi[0]))
    assert (hi[0] - lo[0]) < 12 * rms.std()


def _per_mode_sigma2(k2):
    """Per-mode error variance of SETDM0 at dt = 1/160, T = 1/16, nx = 32,
    recomputed here mode by mode so the test does not trust the sum."""
    dt, steps, r, nx = 1 / 160, 10, 0.5, 32
    i = np.arange(65)
    s = 4.0 * nx ** 2 * np.sin(i * np.pi / (2 * nx)) ** 2
    lam = -(s[:, None] + s[None, :]).ravel()
    mu = np.pi ** 2 * k2 + r
    q = np.exp(-(np.pi * 0.2) ** 2 * k2 / (2 * np.pi))
    out = np.empty(len(k2))
    for m in range(len(k2)):
        a = np.exp(lam[m] * dt) * (1 - r * dt)
        g = np.exp(lam[m] * dt)
        ae = np.exp(-mu[m] * dt)
        cov = np.zeros((2, 2))
        noise = q[m] * np.array([[g * g * dt, g * (1 - ae) / mu[m]],
                                 [g * (1 - ae) / mu[m], (1 - ae * ae) / (2 * mu[m])]])
        prop = np.diag([a, ae])
        for _ in range(steps):
            cov = prop @ cov @ prop + noise
        out[m] = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
    return out


def test_fitted_order_and_band():
    dts = [0.1, 0.05, 0.025]
    assert np.isclose(checks.fitted_order(dts, [3 * d ** 0.5 for d in dts]), 0.5)
    band = bench.ORDER_BAND_ADVECTION
    assert checks.in_band(0.5, band)
    assert not checks.in_band(0.3, band)
    assert not checks.in_band(0.8, band)
    assert not checks.in_band(float("nan"), band)
    assert not checks.in_band(None, band)


def _small_streaks(setd, nx=8):
    cfg = setd.harness.advection_study(heterogeneous=True, nx=nx, realizations=1, seed=3,
                                       T=Fraction(1, 5))
    return cfg, setd.harness.build_problem(cfg)


def test_dense_cell_agrees_with_study_cell_and_rejects_perturbed_propagator(setd):
    cfg, problem = _small_streaks(setd)
    level = bench.DENSE_LEVEL
    capture = bench.CellCapture(setd.harness, "setdm1", cfg.dt_list[level], 0)
    capture.install()
    try:
        setd.harness.run_study(cfg)
    finally:
        capture.uninstall()
    assert setd.harness.run is capture.original
    ok, detail = bench.check_dense_cell(setd, cfg, problem, capture.final)
    assert ok, detail

    dt = float(cfg.dt_list[level])
    path = setd.noise.make_path(cfg.noise, cfg.seed, 0, float(cfg.finest_dt), cfg.fine_steps)
    coarsening = int(cfg.dt_list[level] / cfg.finest_dt)
    incs = [setd.noise.sample_increment(path, problem.discrete.grid, m, coarsening, "cells")
            for m in range(int(cfg.T / cfg.dt_list[level]))]
    A = problem.discrete.A.dense()
    d = problem.discrete

    def cell(E, P):
        return checks.dense_setdm1(E, P, dt, problem.X0, incs, d.dirichlet_mask,
                                   d.dirichlet_values, lambda u: -u / (np.abs(u) + 1.0),
                                   lambda u: u)

    E, P = checks.dense_propagators(A, dt)
    assert checks.field_mismatch(capture.final, cell(E, P)) <= bench.DENSE_TOL
    E2, P2 = checks.dense_propagators(A * (1 + 1e-4), dt)
    assert checks.field_mismatch(capture.final, cell(E2, P2)) > bench.DENSE_TOL
    assert checks.field_mismatch(capture.final, cell(E * (1 + 1e-5), P)) > bench.DENSE_TOL
    assert not bench.check_dense_cell(setd, cfg, problem, capture.final + 1e-5)[0]


def test_darcy_balance_rejects_perturbed_field(setd):
    grid = setd.harness.build_grid(16, 16, 1.0, 1.0)
    _, faces = setd.darcy.solve_darcy(setd.darcy.PermeabilityField.streaks(grid, 100.0))
    div, bal = checks.darcy_balance(faces.qx, faces.qy, grid.dx, grid.dy)
    assert div <= 1e-10 and bal <= 1e-10
    qmax = np.abs(faces.qx).max()
    qx = faces.qx.copy()
    qx[5, 3] += 1e-6 * qmax
    assert checks.darcy_balance(qx, faces.qy, grid.dx, grid.dy)[0] > 1e-10
    qx = faces.qx.copy()
    qx[-1, :] *= 1 + 1e-6
    assert checks.darcy_balance(qx, faces.qy, grid.dx, grid.dy)[1] > 1e-10


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    inner_t = tracer.wrap("inner", inner)

    def outer(n):
        return inner_t(n) + inner_t(n)

    outer_t = tracer.wrap("outer", outer)
    for _ in range(3):
        outer_t(20000)
    spans = tracer.by_name()
    calls, incl, excl = spans["outer"]
    assert calls == 3 and spans["inner"][0] == 6
    assert np.isclose(excl, incl - spans["inner"][1], rtol=0, atol=1e-12)
    assert np.isclose(spans["inner"][2], spans["inner"][1], rtol=0, atol=1e-15)
    ids, par, t0, t1 = tracer.span_arrays()
    assert list(par[:3]) == [-1, 0, 0]


def _tiny_linear(setd):
    noise = setd.noise.NoiseSpec.exponential(n1=8, n2=8)
    return setd.harness.linear_additive_study(
        nx=8, realizations=2, seed=5, T=Fraction(1, 8), noise=noise,
        dt_list=(Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)),
        finest_dt=Fraction(1, 64))


def test_traced_counts_repeat_and_results_unchanged(setd):
    cfg = _tiny_linear(setd)
    plain = bench.row_signature(setd.harness.run_study(cfg))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(setd)
        try:
            report = setd.harness.run_study(cfg)
        finally:
            tracer.uninstall()
        assert bench.row_signature(report) == plain
        metrics, _ = layer_metrics(tracer.by_name(), dict(tracer.counts))
        counts.append({k: v for k, (v, unit) in metrics.items() if unit != "s"})
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["harness.cells"] == 3 * 3 * 2
    assert c["integrators.steps"] == 2 * 3 * (2 + 4 + 8)
    assert c["integrators.solves"] == 2 * (2 + 4 + 8)
    assert c["reference.steps"] == 2 * 8
    # the exact reference draws stream 0 again after the schemes did
    assert c["kernels.stream0_blocks"] == 2 * 2 * 8
    assert setd.integrators.phi0_action.__name__ == "phi0_action"
    assert setd.sparse.SparseOperator.matvec.__name__ == "matvec"


def test_aborted_study_counts_every_cell_failed(setd, monkeypatch, capsys):
    def abort(cfg):
        raise setd.errors.KrylovConvergenceError("forced", est_error=1.0)

    monkeypatch.setattr(setd.harness, "run_study", abort)
    assert bench.main(["--workload", "homogeneous", "--seed", "9", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 2 * 5 * 2
    assert result["failed"] == result["attempted"]
    assert set(result["metrics"]) == {"study_s", "setup_s", "cpu_s", "peak_rss_mb"}
    record = json.loads((bench.ROOT / ".studybench" /
                         "homogeneous-seed9-trace0.json").read_text())
    assert record["errors"][0].startswith("KrylovConvergenceError")


def test_exits_nonzero_without_the_library(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "studybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "studybench/run.py", "--workload", "streaks",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
