"""One SETDM1 cell of each advection problem against dense propagators.

studybench/checks.py (numpy and scipy only, no setd) replays a SETDM1
trajectory with exp(dt A) and phi1(dt A) from one Pade ``expm`` on the full
matrix, on the noise increments the run consumed. This module imports
checks.py as it is and feeds it a generator written here face by face, apart
from ``setd.operators``: TPFA diffusion, first-order upwind advection, free
outflow and zero inflow concentration on the boundary, and frozen Dirichlet
cells on the left edge. The cell from ``integrators.run`` must match it to
the action tolerance, so a wrong coefficient in the FV assembly or noise
left on a Dirichlet cell fails here, where the fitted orders of the
acceptance criteria do not see it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from setd import darcy
from setd.grid import build_grid
from setd.harness import advection_study, build_problem
from setd.integrators import Scheme, SchemeConfig, run
from setd.noise import make_path, sample_increment

STUDYBENCH = Path(__file__).resolve().parent.parent / "studybench"
TOL = 1e-6          # as studybench's DENSE_TOL


@pytest.fixture(scope="module")
def checks():
    sys.path.insert(0, str(STUDYBENCH))
    try:
        return importlib.import_module("checks")
    finally:
        sys.path.remove(str(STUDYBENCH))


def _dense_fv_generator(grid, diffusion, qx, qy):
    """A = N / |cell| from the volumetric rates N of every face in turn.

    A face joins cells lo and hi (None outside the domain) and carries the
    rate u toward hi; the upwind cell's value crosses it, and outside
    concentration is zero. Diffusion crosses interior faces only.
    """
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    N = np.zeros((nx * ny, nx * ny))

    def cell(i, j):
        return j * nx + i if 0 <= i < nx and 0 <= j < ny else None

    def face(lo, hi, u, T):
        if lo is not None and hi is not None:
            N[lo, lo] -= T
            N[lo, hi] += T
            N[hi, hi] -= T
            N[hi, lo] += T
        donor = lo if u >= 0 else hi
        if donor is not None:
            if lo is not None:
                N[lo, donor] -= u
            if hi is not None:
                N[hi, donor] += u

    for i in range(nx + 1):
        for j in range(ny):
            face(cell(i - 1, j), cell(i, j), qx[i, j] * dy, diffusion[0] * dy / dx)
    for i in range(nx):
        for j in range(ny + 1):
            face(cell(i, j - 1), cell(i, j), qy[i, j] * dx, diffusion[1] * dx / dy)
    A = N / (dx * dy)
    left = np.zeros((ny, nx), dtype=bool)
    left[:, 0] = True
    mask = left.ravel()
    A[mask] = 0.0
    return A, mask


@pytest.mark.parametrize("heterogeneous", [False, True], ids=["homogeneous", "streaks"])
def test_setdm1_cell_matches_dense_propagators(checks, heterogeneous):
    cfg = advection_study(heterogeneous=heterogeneous, nx=8, realizations=1, seed=7,
                          threads=1)
    grid = build_grid(cfg.nx, cfg.ny, cfg.L1, cfg.L2)
    if heterogeneous:
        _, faces = darcy.solve_streaks(grid)
        qx, qy = faces.qx, faces.qy
    else:
        qx, qy = np.ones((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1))
    A, mask = _dense_fv_generator(grid, (1e-2, 1e-3), qx, qy)
    values = np.where(mask, 1.0, 0.0)    # unit inflow on the left edge

    dt = cfg.dt_list[2]
    coarsening, steps = int(dt / cfg.finest_dt), int(cfg.T / dt)
    path = make_path(cfg.noise, cfg.seed, 0, float(cfg.finest_dt), cfg.fine_steps)
    got = run(build_problem(cfg), SchemeConfig(Scheme.SETDM1, float(dt), steps), path).final
    increments = [sample_increment(path, grid, m, coarsening, where="cells")
                  for m in range(steps)]
    E, P = checks.dense_propagators(A, float(dt))
    want = checks.dense_setdm1(E, P, float(dt), np.zeros(grid.cell_count), increments,
                               mask, values, drift=lambda u: -u / (np.abs(u) + 1.0),
                               dispersion=lambda u: u)
    assert checks.field_mismatch(got, want) <= TOL
