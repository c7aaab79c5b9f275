"""The study benchmark's reach into setd, checked with the library's tests.

studybench/ (``python -m pytest studybench``, outside these tests) reaches
setd by name: its tracer replaces attributes of ``setd.harness``,
``setd.integrators``, ``setd.darcy``, ``setd.sparse`` and ``setd.kernels``
with wrappers, and its ``CellCapture`` wraps ``harness.run`` to keep one
cell's final field. This module imports studybench/tracing.py and
studybench/run.py as they are, installs both the way ``run.main`` does on a
tiny linear and a tiny advection study, and checks that tracing changes no
report row, that the capture holds its cell's final field and that
uninstalling restores every attribute. A deletion or rename in setd that
the benchmark still uses fails here. Both studies pin ``threads = 1``, as
``run.study_config`` does: the tracer and the capture count in this
process, and a worker process would run unwatched.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import setd
from setd.harness import (advection_study, build_problem, linear_additive_study,
                          run_study)
from setd.integrators import Scheme, SchemeConfig, run
from setd.noise import NoiseSpec, make_path

STUDYBENCH = Path(__file__).resolve().parent.parent / "studybench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(STUDYBENCH))
    try:
        return importlib.import_module("run"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(STUDYBENCH))


def _tiny_linear():
    return linear_additive_study(
        nx=6, realizations=2, seed=5, T=Fraction(1, 8), threads=1,
        noise=NoiseSpec.exponential(n1=8, n2=8),
        dt_list=(Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)),
        finest_dt=Fraction(1, 64))


def _tiny_advection():
    return advection_study(heterogeneous=True, nx=6, realizations=1, seed=3, threads=1,
                           T=Fraction(1, 10), noise=NoiseSpec.powerlaw(n1=8, n2=8))


def _namespaces(module):
    """Every attribute the benchmark could patch, by owner, as it is now."""
    owners = (module.harness, module.integrators, module.darcy, module.noise,
              module.kernels, module.sparse, module.sparse.SparseOperator)
    return {owner: dict(vars(owner)) for owner in owners}


@pytest.mark.parametrize("make_cfg", [_tiny_linear, _tiny_advection])
def test_benchmark_wrappers_leave_studies_alone(bench, make_cfg):
    bench_run, tracing = bench
    module = bench_run.load_setd()
    assert module is setd, "the benchmark would import another setd"
    cfg = make_cfg()
    plain = bench_run.row_signature(run_study(cfg))
    before = _namespaces(module)

    dt = cfg.dt_list[-1]
    capture = bench_run.CellCapture(module.harness, "setdm1", dt, 0)
    capture.install()
    tracer = tracing.Tracer()
    tracer.install(module)
    try:
        assert module.harness.run is not capture.original
        traced = bench_run.row_signature(module.harness.run_study(cfg))
    finally:
        tracer.uninstall()
        capture.uninstall()

    assert traced == plain
    metrics, _ = tracing.layer_metrics(tracer.by_name(), dict(tracer.counts))
    cells = len(cfg.schemes) * len(cfg.dt_list) * cfg.realizations
    assert metrics["harness.cells"][0] == cells
    assert metrics["krylov.actions"][0] > 0
    assert metrics["noise.increments"][0] > 0

    # the capture holds the cell that a replay through the public API gives
    path = make_path(cfg.noise, cfg.seed, 0, float(cfg.finest_dt), cfg.fine_steps)
    steps_cfg = SchemeConfig(Scheme.SETDM1, float(dt), int(cfg.T / dt))
    want = run(build_problem(cfg), steps_cfg, path).final
    assert capture.final is not None
    assert capture.final.tobytes() == want.tobytes()

    after = _namespaces(module)
    for owner, names in before.items():
        assert after[owner].keys() == names.keys()
        changed = [name for name, value in names.items() if after[owner][name] is not value]
        assert changed == [], f"{owner.__name__} not restored: {changed}"
