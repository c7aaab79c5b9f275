"""Spatial discretization: P1 finite elements and cell-centered finite volumes.

Both assemblers produce a :class:`DiscreteProblem` holding the generator
``A_h = -M^{-1} K`` ready for exponential/implicit time stepping:

* FEM: P1 elements on rectangles split along the (i,j)->(i+1,j+1) diagonal,
  stiffness + advection + optional zero-order (Garding) shift assembled
  exactly, mass lumped by row sums so A_h stays a single sparse matrix.
* FV: two-point flux diffusion (diagonal D) plus first-order upwind
  advection on face velocities; M is the diagonal of cell volumes.

``DiscreteProblem.where`` names the DOF sites, ``"nodes"`` (FEM) or
``"cells"`` (FV); their order, coordinates and boundary edges come from
:mod:`setd.grid`.

Dirichlet handling freezes the boundary DOFs: their rows of A_h are zero
(so exp(dt*A_h) and phi1(dt*A_h) act as the identity there and the implicit
matrix I - dt*A_h has identity rows), while interior rows keep their
couplings into the frozen DOFs, which carries the boundary value into the
domain. ``apply_dirichlet`` overwrites the frozen values; ``integrators.run``
calls it on X0 and writes the same values in place after every step. For
FV grids the frozen DOFs are the cells adjacent to Dirichlet-tagged faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError, check_real
from .grid import BoundaryTag, boundary_sites, interior_faces, site_index
from .sparse import SparseOperator

_TAG_ORDER = (BoundaryTag.LEFT, BoundaryTag.RIGHT, BoundaryTag.BOTTOM, BoundaryTag.TOP)


@dataclass
class FaceVelocities:
    """Normal velocities on grid faces.

    qx has shape (nx+1, ny): x-normal faces, qx[i, j] between cells
    (i-1, j) and (i, j), positive toward +x. qy has shape (nx, ny+1).
    """

    qx: np.ndarray
    qy: np.ndarray

    @classmethod
    def constant(cls, grid, qx, qy):
        return cls(
            np.full((grid.nx + 1, grid.ny), check_real(qx, "qx")),
            np.full((grid.nx, grid.ny + 1), check_real(qy, "qy")),
        )

    def validate(self, grid):
        if self.qx.shape != (grid.nx + 1, grid.ny) or self.qy.shape != (grid.nx, grid.ny + 1):
            raise InvalidArgumentError(
                f"face-velocity shapes {self.qx.shape}/{self.qy.shape} do not match grid "
                f"({grid.nx + 1}, {grid.ny})/({grid.nx}, {grid.ny + 1})"
            )
        if not (np.all(np.isfinite(self.qx)) and np.all(np.isfinite(self.qy))):
            raise InvalidArgumentError("face velocities contain NaN/Inf")


@dataclass
class DiscreteProblem:
    """Spatially discretized generator plus boundary bookkeeping.

    A is the generator A_h = -M^{-1} K with Dirichlet rows zeroed; K is the
    raw stiffness(+advection+c0-mass) matrix before boundary treatment;
    mass is the diagonal of M (lumped nodal masses or cell volumes).
    """

    grid: object
    where: str  # DOF sites: "nodes" (FEM) | "cells" (FV)
    A: SparseOperator
    K: SparseOperator
    mass: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray

    @property
    def ndof(self):
        return self.A.n_rows


def _as_tensor(D, diagonal_only):
    D = np.asarray(D, dtype=np.float64)
    if D.ndim == 0:
        D = np.diag([float(D), float(D)])
    elif D.shape == (2,):
        D = np.diag(D)
    elif D.shape != (2, 2):
        raise InvalidArgumentError(f"diffusion tensor must be scalar, length-2, or 2x2, got shape {D.shape}")
    if not np.all(np.isfinite(D)):
        raise InvalidArgumentError("diffusion tensor contains NaN/Inf")
    if diagonal_only:
        if D[0, 1] != 0.0 or D[1, 0] != 0.0:
            raise InvalidArgumentError("finite-volume assembly requires a diagonal diffusion tensor")
        if D[0, 0] <= 0 or D[1, 1] <= 0:
            raise InvalidArgumentError("diffusion coefficients must be positive")
    else:
        if not np.allclose(D, D.T, rtol=0, atol=1e-13 * max(1.0, np.abs(D).max())):
            raise InvalidArgumentError("diffusion tensor must be symmetric")
        if np.linalg.eigvalsh(D).min() <= 0:
            raise InvalidArgumentError("diffusion tensor must be positive definite")
    return D


def _dirichlet_arrays(grid, dirichlet, where):
    """Mask and values of the ``where`` sites that ``dirichlet`` ({BoundaryTag: value}) freezes."""
    dirichlet = dict(dirichlet or {})
    ndof = site_index(grid, where).size
    mask = np.zeros(ndof, dtype=bool)
    values = np.zeros(ndof)
    for tag in _TAG_ORDER:  # fixed order: later tags win at shared corners
        if tag in dirichlet:
            value = check_real(dirichlet.pop(tag), f"Dirichlet value on {tag}")
            idx = boundary_sites(grid, tag, where)
            mask[idx] = True
            values[idx] = value
    if dirichlet:
        raise InvalidArgumentError(f"unknown boundary tags {list(dirichlet)!r}")
    return mask, values


# ---------------------------------------------------------------------------
# P1 finite elements
# ---------------------------------------------------------------------------

def _triangle_connectivity(grid):
    """Connectivity (ntri, 3) for the fixed-diagonal split, both orientations."""
    idx = site_index(grid, "nodes")
    n00 = idx[:-1, :-1].ravel()
    n10 = idx[1:, :-1].ravel()
    n01 = idx[:-1, 1:].ravel()
    n11 = idx[1:, 1:].ravel()
    tri1 = np.column_stack([n00, n10, n11])  # lower-right triangle
    tri2 = np.column_stack([n00, n11, n01])  # upper-left triangle
    return tri1, tri2


def _p1_gradients(dx, dy):
    # Constant shape-function gradients for the two reference orientations.
    g1 = np.array([[-1.0 / dx, 0.0], [1.0 / dx, -1.0 / dy], [0.0, 1.0 / dy]])
    g2 = np.array([[0.0, -1.0 / dy], [1.0 / dx, 0.0], [-1.0 / dx, 1.0 / dy]])
    return g1, g2


def assemble_fem(grid, D, velocity=None, dirichlet=None, c0=0.0):
    """Assemble the P1 FEM generator on the diagonally split rectangle mesh.

    Parameters
    ----------
    grid : Grid
    D : scalar, length-2, or SPD 2x2 array
        Diffusion tensor.
    velocity : None or a constant (qx, qy) pair
        Advection velocity.
    dirichlet : dict {BoundaryTag: value}, optional
        Finite values held on the tagged edges; the other edges are zero
        Neumann (natural).
    c0 : float
        Zero-order shift added as c0 * (consistent mass); compensate in the
        reaction term F when using a nonzero shift.

    Returns
    -------
    DiscreteProblem
    """
    D = _as_tensor(D, diagonal_only=False)
    if velocity is None:
        velocity = (0.0, 0.0)
    if not isinstance(velocity, (tuple, list, np.ndarray)) or len(velocity) != 2:
        raise InvalidArgumentError(f"velocity must be None or a finite (qx, qy) pair, got {velocity!r}")
    qx, qy = check_real(velocity[0], "velocity qx"), check_real(velocity[1], "velocity qy")
    c0 = check_real(c0, "c0")
    mask, values = _dirichlet_arrays(grid, dirichlet, "nodes")
    dx, dy = grid.dx, grid.dy
    area = 0.5 * dx * dy
    tri1, tri2 = _triangle_connectivity(grid)
    g1, g2 = _p1_gradients(dx, dy)

    rows, cols, vals = [], [], []
    lumped = np.zeros(grid.node_count)

    for conn, g in ((tri1, g1), (tri2, g2)):
        ntri = conn.shape[0]
        stiff = area * (g @ D @ g.T)  # 3x3, same for every triangle of this orientation
        mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        local = stiff + c0 * mass
        # int_T (q . grad phi_b) phi_a dx = (q . grad phi_b) * area / 3 for all a
        adv = (qx * g[:, 0] + qy * g[:, 1]) * (area / 3.0)
        for a in range(3):
            for b in range(3):
                rows.append(conn[:, a])
                cols.append(conn[:, b])
                vals.append(np.full(ntri, local[a, b] + adv[b]))

        np.add.at(lumped, conn.ravel(), area / 3.0)

    K = SparseOperator.from_coo(
        grid.node_count,
        grid.node_count,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )
    A = K.scale_rows(np.where(mask, 0.0, -1.0 / lumped))
    return DiscreteProblem(grid, "nodes", A, K, lumped, mask, values)


# ---------------------------------------------------------------------------
# Cell-centered finite volumes
# ---------------------------------------------------------------------------

def assemble_fv(grid, D, q_faces=None, dirichlet=None, c0=0.0):
    """Assemble the FV generator: TPFA diffusion + first-order upwind advection.

    Parameters
    ----------
    grid : Grid
    D : scalar, length-2, or diagonal 2x2 array
        Diffusion coefficients (Dx, Dy).
    q_faces : FaceVelocities or None
        Face-normal velocities (``FaceVelocities.constant`` for a constant
        field); None is no advection.
    dirichlet, c0 : as for assemble_fem.

    Notes
    -----
    Faces without a Dirichlet value carry zero diffusive flux; advective flux through
    boundary faces upwinds from the interior cell (free outflow) and
    assumes zero outside concentration on inflow. Dirichlet-tagged faces
    are enforced by freezing the adjacent cell layer.
    """
    D = _as_tensor(D, diagonal_only=True)
    c0 = check_real(c0, "c0")
    if q_faces is None:
        q_faces = FaceVelocities.constant(grid, 0.0, 0.0)
    elif not isinstance(q_faces, FaceVelocities):
        raise InvalidArgumentError(f"q_faces must be None or FaceVelocities, got {q_faces!r}")
    q_faces.validate(grid)
    mask, values = _dirichlet_arrays(grid, dirichlet, "cells")

    dx, dy = grid.dx, grid.dy
    vol = dx * dy
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(v.ravel())

    # interior faces, x then y: lo = cell below/left, hi = cell above/right
    for (lo, hi, face), q, T, area in zip(interior_faces(grid), (q_faces.qx, q_faces.qy),
                                          (D[0, 0] * dy / dx, D[1, 1] * dx / dy), (dy, dx)):
        n = lo.size
        add(lo, hi, np.full(n, T)); add(lo, lo, np.full(n, -T))
        add(hi, lo, np.full(n, T)); add(hi, hi, np.full(n, -T))
        u = q[face] * area  # volumetric advective rate, positive toward hi
        up = np.where(u >= 0, lo, hi)
        add(lo, up, -u)
        add(hi, up, u)

    # boundary faces, in tag order, with rates along the outward normal:
    # advective outflow only (zero inflow concentration); zero diffusive flux
    # on Neumann faces; Dirichlet cells get frozen below.
    outflow = (-q_faces.qx[0, :] * dy, q_faces.qx[-1, :] * dy,
               -q_faces.qy[:, 0] * dx, q_faces.qy[:, -1] * dx)
    for tag, out in zip(_TAG_ORDER, outflow):
        c = boundary_sites(grid, tag, "cells")
        add(c, c, np.where(out > 0, -out, 0.0))

    N = SparseOperator.from_coo(
        grid.cell_count, grid.cell_count,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
    )
    # K in stiffness convention (A_h = -M^{-1} K), M = vol * I
    K = SparseOperator(
        -N.to_scipy() + c0 * vol * sp.identity(grid.cell_count, format="csr"))
    masses = np.full(grid.cell_count, vol)
    A = K.scale_rows(np.where(mask, 0.0, -1.0 / masses))
    return DiscreteProblem(grid, "cells", A, K, masses, mask, values)


# ---------------------------------------------------------------------------
# State helpers
# ---------------------------------------------------------------------------

def apply_dirichlet(problem, state):
    """Overwrite Dirichlet DOFs with their boundary values (pure; idempotent)."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (problem.ndof,):
        raise InvalidArgumentError(
            f"state has shape {state.shape}, expected ({problem.ndof},)"
        )
    out = state.copy()
    out[problem.dirichlet_mask] = problem.dirichlet_values[problem.dirichlet_mask]
    return out


def quadrature_weights(grid, ndof):
    """Discrete-L2 weights: trapezoid nodal weights or cell volumes.

    The vector length selects the DOF family; both weight sets sum to the
    domain area.
    """
    if ndof == grid.node_count:
        wx = np.full(grid.nx + 1, grid.dx)
        wx[0] = wx[-1] = 0.5 * grid.dx
        wy = np.full(grid.ny + 1, grid.dy)
        wy[0] = wy[-1] = 0.5 * grid.dy
        return np.outer(wy, wx).ravel()
    if ndof == grid.cell_count:
        return np.full(grid.cell_count, grid.dx * grid.dy)
    raise InvalidArgumentError(
        f"vector length {ndof} matches neither nodes ({grid.node_count}) nor cells ({grid.cell_count})"
    )
