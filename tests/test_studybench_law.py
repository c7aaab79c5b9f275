"""Every linear study cell against an independent prediction of its error.

studybench/checks.py (numpy and scipy only, no setd) propagates each cosine
mode's second moments of (scheme - exact OU) in closed form, so the mean
square error of every (scheme, dt) cell of the linear additive study is
known without running a scheme, and ``law_band`` turns it into an
acceptance interval for the RMS error over R realizations. This module
imports studybench/run.py and checks.py as they are, runs the benchmark's
``additive-fine`` config at five seeds, and holds every cell to its band.
Where fitted orders only see the slope, this sees a wrong variance of the
exact reference or of the fields at a single cell.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import setd
from setd.harness import run_study

STUDYBENCH = Path(__file__).resolve().parent.parent / "studybench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(STUDYBENCH))
    try:
        return importlib.import_module("run"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(STUDYBENCH))


def test_linear_cells_lie_in_their_law_bands(bench):
    bench_run, checks = bench
    failures, cells = [], 0
    for seed in range(1, 6):
        cfg = dataclasses.replace(bench_run.study_config(setd, "additive-fine", seed),
                                  realizations=4)
        law = checks.mode_sum_law(cfg.dt_list, cfg.T, nx=cfg.nx)
        report = run_study(cfg)
        for scheme in (s.value for s in cfg.schemes):
            rows = [r for r in report.rows if r.scheme == scheme]
            lo, hi = checks.law_band(*law[scheme], cfg.realizations)
            assert len(rows) == len(cfg.dt_list)
            for k, row in enumerate(rows):
                cells += 1
                if row.flagged_count or not lo[k] <= row.rms_error <= hi[k]:
                    failures.append((seed, scheme, str(row.dt), row.rms_error, lo[k], hi[k]))
    assert cells == 60
    assert failures == []
