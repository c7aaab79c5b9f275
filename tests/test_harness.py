"""Study orchestration tests: error metric, order fitting, report formats,
worker-count invariance, worker failure, and flagging of failed cells."""

import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest

import setd.harness as harness
import setd.kernels as kernels
from setd.errors import (DegenerateFitError, DivergenceError, InvalidArgumentError,
                         KrylovConvergenceError, SETDError, SolverError)
from setd.grid import build_grid
from setd.harness import (
    StudyConfig,
    advection_study,
    build_problem,
    fit_order,
    linear_additive_study,
    rms_l2_error,
    run_study,
)
from setd.integrators import Scheme, SchemeConfig, run
from setd.noise import NoiseSpec, make_path, sample_increment


def _tiny_linear(threads=1, realizations=3, seed=11):
    return linear_additive_study(
        nx=6, realizations=realizations, seed=seed, threads=threads,
        dt_list=(Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)),
        finest_dt=Fraction(1, 16),
        noise=NoiseSpec.exponential(n1=12, n2=12),
    )


def test_rms_l2_error_exact_values():
    grid = build_grid(4, 4, 1.0, 1.0)
    n = grid.node_count
    # constant difference d over the unit square: ||d||_L2 = |d|
    samples = [(np.full(n, 2.0), np.zeros(n))]
    assert rms_l2_error(samples, grid) == pytest.approx(2.0, rel=1e-14)
    # two realizations with errors 3 and 4: rms = sqrt((9+16)/2)
    samples = [(np.full(n, 3.0), np.zeros(n)), (np.full(n, 4.0), np.zeros(n))]
    assert rms_l2_error(samples, grid) == pytest.approx(np.sqrt(12.5), rel=1e-14)
    # cell-centered vectors select cell-volume weights
    m = grid.cell_count
    assert rms_l2_error([(np.full(m, 2.0), np.zeros(m))], grid) == pytest.approx(2.0)
    with pytest.raises(InvalidArgumentError):
        rms_l2_error([], grid)
    with pytest.raises(InvalidArgumentError):
        rms_l2_error([(np.zeros(5), np.zeros(5))], grid)


def test_fit_order_recovers_exact_power_laws():
    dts = [0.1, 0.05, 0.025, 0.0125]
    for order, scale in [(0.5, 2.0), (1.0, 0.3), (0.9, 1.0)]:
        errs = [scale * d**order for d in dts]
        slope, intercept = fit_order(dts, errs)
        assert slope == pytest.approx(order, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(scale, rel=1e-12)
    # Fractions are accepted
    slope, _ = fit_order([Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)],
                         [0.1, 0.05, 0.025])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_order_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_order([0.1, 0.05], [1.0, 0.5])
    with pytest.raises(DegenerateFitError):
        fit_order([0.1, 0.05, 0.025], [1.0, 0.0, 0.5])
    with pytest.raises(DegenerateFitError):
        fit_order([0.1, 0.1, 0.1], [1.0, 0.9, 0.8])
    with pytest.raises(DegenerateFitError):
        fit_order([0.1, 0.05, 0.025], [1.0, np.nan, 0.5])
    with pytest.raises(InvalidArgumentError):
        fit_order([0.1, 0.05, 0.025], [1.0, 0.5])


def test_study_config_validation():
    with pytest.raises(InvalidArgumentError):
        _ = StudyConfig(problem="unknown", schemes=(Scheme.SETDM1,),
                        dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4))
    with pytest.raises(InvalidArgumentError):  # dt does not divide T
        StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                    dt_list=(Fraction(1, 3), Fraction(1, 7)), finest_dt=Fraction(1, 7))
    with pytest.raises(InvalidArgumentError):  # finest does not divide dt
        StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                    dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 6))
    with pytest.raises(InvalidArgumentError):  # not strictly decreasing
        StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                    dt_list=(Fraction(1, 8), Fraction(1, 4)), finest_dt=Fraction(1, 8))
    with pytest.raises(InvalidArgumentError):
        StudyConfig(problem="linear_additive", schemes=(),
                    dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4))
    with pytest.raises(InvalidArgumentError):
        StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                    dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4), threads=0)
    # counts must be integers: a float count would reach range() or Philox
    # keys by truncation while the report records the float
    for name, bad in (("realizations", 1.5), ("realizations", "2"), ("seed", 1.5),
                      ("seed", "1"), ("seed", None), ("threads", 2.0),
                      ("realizations", True), ("seed", False), ("threads", True),
                      ("c0", math.nan), ("c0", math.inf), ("c0", "0.5"),
                      ("expected_order", math.nan), ("expected_order", -math.inf)):
        with pytest.raises(InvalidArgumentError, match=name):
            StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                        dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4), **{name: bad})
    # Philox keys take the seed mod 2^64, so seeds outside [0, 2^64) would
    # alias seeds inside it
    for bad in (-1, 2 ** 64):
        with pytest.raises(InvalidArgumentError, match="seed"):
            linear_additive_study(seed=bad)
    assert linear_additive_study(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    with pytest.raises(InvalidArgumentError, match="realizations"):
        linear_additive_study(realizations=1.5)
    cfg = StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                      dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4),
                      realizations=np.int64(2), seed=np.int64(3))
    assert (type(cfg.realizations), type(cfg.seed)) == (int, int)
    # the exact reference would use the noise's domain and the fields the
    # grid's: errors near 1.5 and no flag
    with pytest.raises(InvalidArgumentError, match="domain"):
        linear_additive_study(nx=4, noise=NoiseSpec.exponential(n1=4, n2=4, L1=3.0, L2=3.0))
    cfg = linear_additive_study(nx=4, L1=3.0, L2=2.0,
                                noise=NoiseSpec.exponential(n1=4, n2=4, L1=3.0, L2=2.0))
    assert (cfg.noise.L1, cfg.noise.L2) == (3.0, 2.0)
    cfg = _tiny_linear()
    assert cfg.fine_steps == 16
    assert cfg.noise.n1 == 12


def test_repeated_schemes_are_rejected():
    # a repeated scheme wrote one row per copy and fitted its order on
    # doubled points
    with pytest.raises(InvalidArgumentError, match="schemes must not repeat"):
        linear_additive_study(schemes=(Scheme.SETDM0, Scheme.SETDM0))


def test_bad_problem_params_fail_when_the_config_is_built():
    tiny = dict(nx=4, realizations=1, dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4))
    noise = NoiseSpec.powerlaw(n1=4, n2=4)
    presets = {"linear_additive": linear_additive_study,
               "advection_homogeneous": functools.partial(advection_study, noise=noise),
               "advection_heterogeneous": functools.partial(advection_study, heterogeneous=True,
                                                            noise=noise)}
    for problem, make in presets.items():
        for key in harness.PROBLEM_PARAMS[problem]:
            for bad in (math.nan, "0.5", None):
                with pytest.raises(InvalidArgumentError, match=key):
                    make(problem_params={key: bad}, **tiny)
        foreign = {"linear_additive": "inflow", "advection_homogeneous": "contrast",
                   "advection_heterogeneous": "reaction"}[problem]
        with pytest.raises(InvalidArgumentError, match=foreign):
            make(problem_params={foreign: 1.0}, **tiny)
    # Darcy keys apply to the heterogeneous problem alone; darcy checks them
    cfg = presets["advection_heterogeneous"](problem_params={"contrast": 5.0}, **tiny)
    assert cfg.problem_params == {"contrast": 5.0}


def test_build_problem_shapes_and_rejects_unknown_params():
    cfg = _tiny_linear()
    problem = build_problem(cfg)
    assert problem.discrete.where == "nodes"
    assert problem.linear_reference == (1.0, 0.5)
    assert problem.dispersion is None          # additive noise
    with pytest.raises(InvalidArgumentError):
        StudyConfig(problem="linear_additive", schemes=(Scheme.SETDM1,),
                    dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4),
                    problem_params={"不明": 1.0})
    adv = advection_study(nx=6, realizations=2,
                          dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 8),
                          noise=NoiseSpec.powerlaw(n1=6, n2=6))
    aprob = build_problem(adv)
    assert aprob.discrete.where == "cells"
    assert aprob.dispersion is not None        # multiplicative noise
    assert aprob.discrete.dirichlet_mask.sum() == 6  # inflow column frozen
    het = advection_study(heterogeneous=True, nx=8, realizations=2,
                          dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 8),
                          noise=NoiseSpec.powerlaw(n1=6, n2=6),
                          problem_params={"contrast": 10.0})
    hprob = build_problem(het)
    assert hprob.discrete.where == "cells"


def test_problems_pickle_and_run_the_same():
    # the drift and dispersion are module-level functions bound with
    # functools.partial, so a ProblemDef survives pickling unchanged
    small = dict(nx=6, realizations=1, dt_list=(Fraction(1, 8),), finest_dt=Fraction(1, 16),
                 noise=NoiseSpec.powerlaw(n1=6, n2=6))
    for cfg in (linear_additive_study(**small), linear_additive_study(c0=0.5, **small),
                advection_study(**small), advection_study(heterogeneous=True, c0=0.5, **small)):
        problem = build_problem(cfg)
        copy = pickle.loads(pickle.dumps(problem))
        path = make_path(cfg.noise, 1, 0, 1 / 16, 8)
        for scheme in cfg.schemes:
            config = SchemeConfig(scheme, 1 / 8, 4)
            assert (run(copy, config, path).final.tobytes()
                    == run(problem, config, path).final.tobytes())


def test_non_finite_problem_params_fail_before_the_study():
    # a NaN or Inf [problem] value used to run the whole study and report
    # NaN rows with every cell flagged; it now fails when the config is built
    tiny = dict(realizations=1, dt_list=(Fraction(1, 4),), finest_dt=Fraction(1, 4))
    noise = NoiseSpec.powerlaw(n1=4, n2=4)
    for bad in (math.nan, math.inf, -math.inf):
        for make, key in ((linear_additive_study, "reaction"), (linear_additive_study, "diffusion"),
                          (functools.partial(advection_study, noise=noise), "inflow"),
                          (functools.partial(advection_study, noise=noise), "velocity_y")):
            with pytest.raises(InvalidArgumentError, match=key):
                make(nx=4, problem_params={key: bad}, **tiny)


def test_linear_study_report_structure_and_monotone_errors():
    report = run_study(_tiny_linear())
    assert len(report.rows) == 3 * 3  # 3 schemes x 3 dt levels
    for scheme in ("setdm0", "setdm1", "semi_implicit"):
        errs = [r.rms_error for r in report.rows if r.scheme == scheme]
        assert len(errs) == 3
        assert all(np.isfinite(e) and e > 0 for e in errs)
        assert errs[0] > errs[-1]  # error shrinks with dt
        assert report.fitted_orders[scheme] == pytest.approx(
            fit_order([Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)], errs)[0])
    assert report.metadata["seed"] == 11
    assert report.metadata["noise"]["kind"] == "exponential"
    assert "threads" not in report.metadata  # reports ignore the worker count


@pytest.mark.parametrize("workers", [2, 3])
def test_reports_bit_identical_across_thread_counts(tmp_path, workers):
    rep1 = run_study(_tiny_linear(threads=1))
    repw = run_study(_tiny_linear(threads=workers))
    for name, a, b in (("report.csv", rep1, repw), ("report.json", rep1, repw)):
        pa = tmp_path / f"t1_{name}"
        pb = tmp_path / f"t{workers}_{name}"
        (a.to_csv(pa) if name.endswith("csv") else a.to_json(pa))
        (b.to_csv(pb) if name.endswith("csv") else b.to_json(pb))
        assert pa.read_bytes() == pb.read_bytes()


def _tiny_multiplicative(threads=1, realizations=2):
    return advection_study(
        nx=6, realizations=realizations, seed=3, threads=threads,
        dt_list=(Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)),
        finest_dt=Fraction(1, 32),
        noise=NoiseSpec.powerlaw(n1=8, n2=8),
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_multiplicative_reports_bit_identical_across_thread_counts(tmp_path, workers):
    # each worker gets a pickled copy of the problem, whose operator caches
    # (norms, factorizations) fill again there; the bytes must not notice
    reports = {t: run_study(_tiny_multiplicative(threads=t, realizations=4))
               for t in (1, workers)}
    for t, rep in reports.items():
        rep.to_csv(tmp_path / f"t{t}.csv")
        rep.to_json(tmp_path / f"t{t}.json")
    for ext in ("csv", "json"):
        one, many = (tmp_path / f"t{t}.{ext}" for t in (1, workers))
        assert one.read_bytes() == many.read_bytes()


@pytest.mark.parametrize("threads, realizations, workers",
                         [(10 ** 6, 3, 3), (2, 3, 2), (1, 3, None), (5, 1, None)])
def test_pool_size_is_threads_capped_at_realizations(monkeypatch, threads, realizations,
                                                     workers):
    # a fork pool starts all its workers at once, so a real pool never sees
    # a large count here: the fake records its size and runs the work in
    # turn, on pickled copies, as a worker would receive and return it
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, work, items):
            work = pickle.loads(pickle.dumps(work))
            return (pickle.loads(pickle.dumps(work(item))) for item in items)

    serial = run_study(_tiny_linear(threads=1, realizations=realizations))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    report = run_study(_tiny_linear(threads=threads, realizations=realizations))
    assert sizes == ([] if workers is None else [workers])
    assert [r.rms_error.hex() for r in report.rows] == [r.rms_error.hex() for r in serial.rows]


def test_dead_worker_fails_typed_and_never_hangs(monkeypatch):
    # forked workers inherit the patched run, so nothing needs to pickle
    parent = os.getpid()
    real_run = harness.run

    def dying_run(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(harness, "run", dying_run)
    t0 = time.perf_counter()
    with pytest.raises(SETDError, match="realization 0 was lost"):
        run_study(_tiny_linear(threads=2, realizations=2))
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


def _spy_draws(monkeypatch):
    """Record (key, step, stream) of every Philox block and every path made."""
    draws, paths = [], []
    block, make_path = kernels.normal_block, harness.make_path

    def spy_block(k0, k1, n1, n2, step, stream):
        draws.append(((k0, k1), step, stream))
        return block(k0, k1, n1, n2, step, stream)

    def spy_path(*args, **kwargs):
        paths.append(make_path(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(kernels, "normal_block", spy_block)
    monkeypatch.setattr(harness, "make_path", spy_path)
    return draws, paths


def test_linear_study_draws_each_block_once(monkeypatch):
    # the exact reference draws each fine step's stream-2 class block, whose
    # field the schemes share, and one stream-1 remainder block per
    # realization; nothing draws the stream-0 mode blocks
    cfg = _tiny_linear(realizations=2)
    draws, paths = _spy_draws(monkeypatch)
    run_study(cfg)
    keys = {path._key for path in paths}
    assert len(paths) == len(keys) == 2
    expected = sorted([(key, step, 2) for key in keys for step in range(cfg.fine_steps)]
                      + [(key, 0, 1) for key in keys])
    assert sorted(draws) == expected


def test_advection_study_draws_each_block_once(monkeypatch):
    # the fields come from the cells' class blocks alone (stream 2)
    cfg = _tiny_multiplicative()
    draws, paths = _spy_draws(monkeypatch)
    run_study(cfg)
    expected = sorted((path._key, step, 2) for path in paths
                      for step in range(cfg.fine_steps))
    assert len(paths) == 2 and sorted(draws) == expected


def _held_shapes(path):
    """Shapes of every array a path holds, its stored fields included."""
    shapes = []
    for value in vars(path).values():
        if isinstance(value, dict):
            shapes += [a.shape for a in value.values()]
        elif isinstance(value, np.ndarray):
            shapes.append(value.shape)
    return shapes


@pytest.mark.parametrize("make_cfg", [_tiny_linear, _tiny_multiplicative],
                         ids=["linear", "advection"])
def test_study_paths_hold_one_field_per_fine_step(monkeypatch, make_cfg):
    # a study path stores each fine step's field on the problem's lattice
    # and no mode block
    cfg = make_cfg(realizations=2)
    ndof = build_problem(cfg).discrete.ndof
    _, paths = _spy_draws(monkeypatch)
    run_study(cfg)
    assert len(paths) == 2
    for path in paths:
        assert _held_shapes(path) == [(ndof,)] * cfg.fine_steps


def test_single_run_path_holds_nothing():
    # each field of a single run is used once: a path without sites stores none
    cfg = _tiny_linear(realizations=1)
    problem = build_problem(cfg)
    path = make_path(cfg.noise, 1, 0, float(cfg.finest_dt), cfg.fine_steps)
    run(problem, SchemeConfig(Scheme.SETDM1, float(cfg.finest_dt), cfg.fine_steps), path)
    assert _held_shapes(path) == []


def test_stored_fields_never_leak_through_returned_arrays():
    # writing NaN into every array a bound path returns must not reach the
    # fields that later increments and field requests read; the clean path
    # is bound to the same lattice
    cfg = _tiny_linear(realizations=1)
    problem = build_problem(cfg)
    grid, where = problem.discrete.grid, problem.discrete.where
    mk = lambda: harness.make_path(cfg.noise, 1, 0, float(cfg.finest_dt), 4, sites=(grid, where))
    clean = mk()
    incs = [clean.brownian_increment_modes(s) for s in range(4)]
    pair = clean.brownian_increment_modes(1, coarsening=2)
    fields = [sample_increment(clean, grid, s, where=where) for s in range(4)]
    whole = sample_increment(clean, grid, 0, coarsening=4, where=where)
    path = mk()
    for s in range(4):
        path.brownian_increment_modes(s)[...] = np.nan
        sample_increment(path, grid, s, where=where)[...] = np.nan
    path.brownian_increment_modes(1, coarsening=2)[...] = np.nan
    sample_increment(path, grid, 0, coarsening=4, where=where)[...] = np.nan
    assert len(_held_shapes(path)) == 4
    for s in range(4):
        np.testing.assert_array_equal(path.brownian_increment_modes(s), incs[s])
        np.testing.assert_array_equal(sample_increment(path, grid, s, where=where), fields[s])
    np.testing.assert_array_equal(path.brownian_increment_modes(1, coarsening=2), pair)
    np.testing.assert_array_equal(
        sample_increment(path, grid, 0, coarsening=4, where=where), whole)


def test_report_files_round_trip(tmp_path):
    report = run_study(_tiny_linear(realizations=2))
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    report.to_csv(csv_path)
    report.to_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scheme,dt,rms_error,realizations,flagged_count"
    first = lines[1].split(",")
    assert first[0] == "setdm0" and first[1] == "1/4"
    assert float(first[2]) == report.rows[0].rms_error  # repr round-trips
    payload = json.loads(json_path.read_text())
    assert set(payload) == {"rows", "fitted_orders", "expected_order", "metadata"}
    assert payload["rows"][0]["dt"] == "1/4"
    assert payload["metadata"]["grid"]["nx"] == 6
    assert "krylov" not in payload["metadata"]           # no phi-action knob
    assert "setdm1_variant" not in payload["metadata"]   # one SETDM1 form


def test_report_json_writes_null_for_a_cell_flagged_everywhere(tmp_path, monkeypatch):
    # every setdm0 cell diverges in every realization: its rms_error is NaN,
    # which report.csv keeps and report.json, being strict JSON, writes null
    real_run = harness.run

    def setdm0_diverges(problem, run_cfg, path, **kwargs):
        if run_cfg.scheme is Scheme.SETDM0:
            raise DivergenceError("forced", step=1)
        return real_run(problem, run_cfg, path, **kwargs)

    monkeypatch.setattr(harness, "run", setdm0_diverges)
    report = run_study(_tiny_linear(realizations=2))
    json_path = tmp_path / "report.json"
    report.to_json(json_path)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(json_path.read_text(), parse_constant=reject)
    for row in payload["rows"]:
        assert (row["rms_error"] is None) == (row["scheme"] == "setdm0")
        assert row["flagged_count"] == (2 if row["scheme"] == "setdm0" else 0)
    report.to_csv(tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[1] == "setdm0,1/4,nan,2,2"
    # any other non-finite value fails loudly, before the file is written
    report.expected_order = math.inf
    with pytest.raises(ValueError):
        report.to_json(tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


def test_linear_study_order_rises_on_finer_steps():
    # Companion to the additive acceptance study: on the coarse range
    # {1/10..1/160} the unresolved modes (mu*dt > 1), which still carry
    # noise, hold most of the squared error; their error saturates near
    # q/(2 mu) whatever dt is, which keeps the fitted order near 0.5.
    # One decade finer those modes are resolved and the same pipeline
    # fits inside [0.75, 1.0] (mode-sum prediction 0.83 over this range;
    # measured 0.91/0.87 with this seed). Three realizations keep the
    # runtime near half a minute; shared-path coupling makes the fitted
    # order far more stable than the individual errors.
    cfg = linear_additive_study(
        nx=32, realizations=3, seed=20240903,
        dt_list=(Fraction(1, 160), Fraction(1, 320), Fraction(1, 640)),
        finest_dt=Fraction(1, 640),
        schemes=(Scheme.SETDM1, Scheme.SEMI_IMPLICIT_EULER),
    )
    report = run_study(cfg)
    assert 0.75 <= report.fitted_orders["setdm1"] <= 1.0
    assert 0.75 <= report.fitted_orders["semi_implicit"] <= 1.0


def test_multiplicative_study_runs_with_finest_reference():
    report = run_study(_tiny_multiplicative())
    assert len(report.rows) == 2 * 3
    for row in report.rows:
        assert np.isfinite(row.rms_error) and row.rms_error > 0
        assert row.flagged_count == 0


def test_divergent_cells_are_flagged_not_fatal(monkeypatch):
    cfg = _tiny_linear(realizations=2)
    real_worker = harness._realization_worker

    def exploding(cfg_, problem, r):
        ref, fields = real_worker(cfg_, problem, r)
        if r == 1:  # realization 1 diverges in one cell
            fields[(Scheme.SETDM0, Fraction(1, 4))] = None
        return ref, fields

    monkeypatch.setattr(harness, "_realization_worker", exploding)
    report = run_study(cfg)
    flagged = {(r.scheme, str(r.dt)): r.flagged_count for r in report.rows}
    assert flagged[("setdm0", "1/4")] == 1
    assert sum(flagged.values()) == 1
    # the flagged cell still reports an rms from the surviving realization
    row = next(r for r in report.rows if r.scheme == "setdm0" and r.dt == Fraction(1, 4))
    assert np.isfinite(row.rms_error)


def test_reference_failure_flags_whole_realization(monkeypatch):
    cfg = _tiny_linear(realizations=2)

    def no_reference(cfg_, problem, r):
        if r == 0:
            return None, {}
        return harness.__dict__["_worker_orig"](cfg_, problem, r)

    harness.__dict__["_worker_orig"] = harness._realization_worker
    monkeypatch.setattr(harness, "_realization_worker", no_reference)
    try:
        report = run_study(cfg)
    finally:
        del harness.__dict__["_worker_orig"]
    assert all(r.flagged_count == 1 for r in report.rows)
    assert all(np.isfinite(r.rms_error) for r in report.rows)


def test_failed_phi_action_flags_its_cell_not_the_study(monkeypatch):
    # any SETDError in one cell is flagged like a divergence; here a phi
    # action over its step cap in the setdm1 dt = 1/8 cell of realization 1
    cfg = _tiny_multiplicative()
    real_run = harness.run

    def failing_run(problem, run_cfg, path, **kwargs):
        if (path.realization == 1 and run_cfg.scheme is Scheme.SETDM1
                and run_cfg.dt == 1 / 8):
            raise KrylovConvergenceError("phi action over its step cap", est_error=1.0)
        return real_run(problem, run_cfg, path, **kwargs)

    monkeypatch.setattr(harness, "run", failing_run)
    report = run_study(cfg)
    flagged = {(r.scheme, str(r.dt)): r.flagged_count for r in report.rows}
    assert flagged[("setdm1", "1/8")] == 1
    assert sum(flagged.values()) == 1
    assert all(np.isfinite(r.rms_error) for r in report.rows)


def test_nan_drift_flags_its_cell_with_its_failure_kind(monkeypatch):
    # a drift that returns NaN in one cell per scheme of realization 1
    # fails that run with its own kind (InvalidArgumentError from the phi
    # actions, SolverError from the implicit solve); the study flags just
    # those cells and finishes
    cfg = _tiny_linear(realizations=2)
    real_run = harness.run
    broken = {Scheme.SETDM0: Fraction(1, 4), Scheme.SETDM1: Fraction(1, 8),
              Scheme.SEMI_IMPLICIT_EULER: Fraction(1, 16)}
    raised = {}

    def nan_drift(u):
        return np.full_like(u, np.nan)

    def run_with_nan_drift(problem, run_cfg, path, **kwargs):
        if path.realization == 1 and run_cfg.dt == broken[run_cfg.scheme]:
            problem = dataclasses.replace(problem, drift=nan_drift)
            try:
                return real_run(problem, run_cfg, path, **kwargs)
            except SETDError as exc:
                raised[run_cfg.scheme] = type(exc)
                raise
        return real_run(problem, run_cfg, path, **kwargs)

    monkeypatch.setattr(harness, "run", run_with_nan_drift)
    report = run_study(cfg)
    assert raised == {Scheme.SETDM0: InvalidArgumentError, Scheme.SETDM1: InvalidArgumentError,
                      Scheme.SEMI_IMPLICIT_EULER: SolverError}
    flagged = {(r.scheme, r.dt): r.flagged_count for r in report.rows}
    assert flagged == {(s.value, dt): int(broken[s] == dt) for s in cfg.schemes
                       for dt in cfg.dt_list}
    assert all(np.isfinite(r.rms_error) for r in report.rows)


def test_failed_reference_flags_whole_realization(monkeypatch):
    cfg = _tiny_multiplicative()
    real_reference = harness.finest_reference

    def failing_reference(problem, path):
        if path.realization == 0:
            raise KrylovConvergenceError("reference over its step cap", est_error=1.0)
        return real_reference(problem, path)

    monkeypatch.setattr(harness, "finest_reference", failing_reference)
    report = run_study(cfg)
    assert all(r.flagged_count == 1 for r in report.rows)
    assert all(np.isfinite(r.rms_error) for r in report.rows)

