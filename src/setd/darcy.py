"""Steady Darcy pressure solver and face-velocity reconstruction.

Solves div( (k/mu) grad p ) = 0 with a two-point flux approximation on the
cell-centered grid: harmonic face permeabilities, fixed pressures p_left at
x=0 and p_right at x=L1 (half-cell transmissibility), no-flow top/bottom.
The reconstructed face-normal velocities q = -(k/mu) grad p are exactly
divergence-free cell by cell (up to the linear-solve residual) and slot
straight into :func:`setd.operators.assemble_fv` as the advection field.
The cell order, the left/right boundary cells and the cell pairs across
each interior face come from :mod:`setd.grid`, as in FV assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidArgumentError, SolverError, check_real
from .grid import BoundaryTag, boundary_sites, interior_faces, site_index
from .operators import FaceVelocities


@dataclass
class PermeabilityField:
    """Cell-wise permeability k (shape (nx, ny)) and fluid viscosity mu."""

    grid: object
    k: np.ndarray
    mu: float = 1.0

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        if self.k.shape != (self.grid.nx, self.grid.ny):
            raise InvalidArgumentError(
                f"permeability shape {self.k.shape} does not match grid ({self.grid.nx}, {self.grid.ny})"
            )
        if not np.all(np.isfinite(self.k)) or np.any(self.k <= 0):
            raise InvalidArgumentError("permeability must be positive finite")
        self.mu = check_real(self.mu, "viscosity mu", 0, open_lo=True)

    @classmethod
    def homogeneous(cls, grid, k=1.0, mu=1.0):
        return cls(grid, np.full((grid.nx, grid.ny), check_real(k, "k")), mu)

    @classmethod
    def streaks(cls, grid, contrast=100.0, centers=(0.25, 0.5, 0.75), width_cells=None, base=1.0, mu=1.0):
        """Horizontal high-permeability streaks on a uniform background.

        Each streak is ``width_cells`` rows (default ceil(ny/20)) centered
        at the given fractions of L2 in [0, 1], with permeability
        base*contrast. The streak's rows are clamped into the grid, so
        centers 0 and 1 give full-width streaks along the bottom and top
        edges. A whole-number float width (3.0) is that many cells.
        """
        contrast = check_real(contrast, "contrast", 0, open_lo=True)
        base = check_real(base, "base")
        if width_cells is None:
            width_cells = math.ceil(grid.ny / 20)
        width = check_real(width_cells, "streak width", 1)
        if not width.is_integer():
            raise InvalidArgumentError(f"streak width must be a whole number of cells, got {width_cells!r}")
        width_cells = int(width)
        centers = tuple(check_real(frac, "streak centers", 0, 1) for frac in centers)
        k = np.full((grid.nx, grid.ny), base)
        for frac in centers:
            jc = min(max(int(round(frac * grid.ny - 0.5)), 0), grid.ny - 1)
            j0 = max(0, min(jc - (width_cells - 1) // 2, grid.ny - width_cells))
            k[:, j0:j0 + width_cells] = base * contrast
        return cls(grid, k, mu)


def _face_transmissibilities(perm):
    g = perm.grid
    kx = perm.k / perm.mu
    dx, dy = g.dx, g.dy
    # interior harmonic averages
    tx = np.zeros((g.nx + 1, g.ny))
    ty = np.zeros((g.nx, g.ny + 1))
    kl = kx[:-1, :]
    kr = kx[1:, :]
    tx[1:-1, :] = (2.0 * kl * kr / (kl + kr)) * dy / dx
    kb = kx[:, :-1]
    kt = kx[:, 1:]
    ty[:, 1:-1] = (2.0 * kb * kt / (kb + kt)) * dx / dy
    # Dirichlet half-cell transmissibilities at x = 0 and x = L1
    tx[0, :] = kx[0, :] * dy / (dx / 2.0)
    tx[-1, :] = kx[-1, :] * dy / (dx / 2.0)
    # no-flow top/bottom: ty boundary rows stay zero
    return tx, ty


def solve_pressure(perm, p_left=1.0, p_right=0.0):
    """Cell pressures for the fixed left/right-pressure, no-flow top/bottom setup.

    Returns
    -------
    ndarray, shape (cell_count,)
        Pressures in flat x-fastest cell order.
    """
    p_left = check_real(p_left, "p_left")
    p_right = check_real(p_right, "p_right")
    g = perm.grid
    tx, ty = _face_transmissibilities(perm)
    rows, cols, vals = [], [], []
    for (lo, hi, face), t in zip(interior_faces(g), (tx, ty)):
        lo, hi, t = lo.ravel(), hi.ravel(), t[face].ravel()
        rows += [lo, lo, hi, hi]
        cols += [lo, hi, hi, lo]
        vals += [t, -t, t, -t]
    left = boundary_sites(g, BoundaryTag.LEFT, "cells")
    right = boundary_sites(g, BoundaryTag.RIGHT, "cells")
    rows += [left, right]
    cols += [left, right]
    vals += [tx[0, :], tx[-1, :]]
    b = np.zeros(g.cell_count)
    b[left] += tx[0, :] * p_left
    b[right] += tx[-1, :] * p_right

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(g.cell_count, g.cell_count),
    ).tocsr()
    p = spla.spsolve(A, b)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    residual = float(np.linalg.norm(A @ p - b)) / scale
    if not residual <= 1e-12:  # a NaN residual fails too
        raise SolverError(f"pressure solve residual {residual:.3e} exceeds 1e-12")
    return p


def velocity_from_pressure(perm, p, p_left, p_right):
    """Face-normal Darcy velocities q = -(k/mu) grad p from cell pressures.

    p_left and p_right must be the boundary pressures p was solved for.
    """
    g = perm.grid
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (g.cell_count,):
        raise InvalidArgumentError(f"pressure has shape {p.shape}, expected ({g.cell_count},)")
    P = p[site_index(g, "cells")]  # P[i, j]
    tx, ty = _face_transmissibilities(perm)
    vel = FaceVelocities.constant(g, 0.0, 0.0)
    # q * face_area = T * (p_upstream - p_downstream); divide the area out
    for (lo, hi, face), t, q, area in zip(interior_faces(g), (tx, ty), (vel.qx, vel.qy), (g.dy, g.dx)):
        q[face] = t[face] * (p[lo] - p[hi]) / area
    vel.qx[0, :] = tx[0, :] * (p_left - P[0, :]) / g.dy
    vel.qx[-1, :] = tx[-1, :] * (P[-1, :] - p_right) / g.dy
    return vel


def divergence(grid, vel):
    """Net volumetric outflux per cell (flat x-fastest order)."""
    vel.validate(grid)
    out = (vel.qx[1:, :] - vel.qx[:-1, :]) * grid.dy + (vel.qy[:, 1:] - vel.qy[:, :-1]) * grid.dx
    return out.T.ravel()


def flux_balance(grid, vel):
    """(inflow, outflow) volumetric rates across x=0 and x=L1."""
    inflow = float(np.sum(vel.qx[0, :]) * grid.dy)
    outflow = float(np.sum(vel.qx[-1, :]) * grid.dy)
    return inflow, outflow


def solve_darcy(perm, p_left=1.0, p_right=0.0):
    """Pressure solve plus velocity reconstruction in one call."""
    p = solve_pressure(perm, p_left, p_right)
    return p, velocity_from_pressure(perm, p, p_left, p_right)


def solve_streaks(grid, **params):
    """solve_darcy on a PermeabilityField.streaks field.

    p_left and p_right go to solve_darcy, every other keyword to streaks;
    keys left out take those functions' defaults.
    """
    flow = {key: params.pop(key) for key in ("p_left", "p_right") if key in params}
    return solve_darcy(PermeabilityField.streaks(grid, **params), **flow)
