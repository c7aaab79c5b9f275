"""Spatial discretization: P1 finite elements and cell-centered finite volumes.

Both assemblers produce a :class:`DiscreteProblem` holding the generator
``A_h = -M^{-1} K`` ready for exponential/implicit time stepping:

* FEM: P1 elements on rectangles split along the (i,j)->(i+1,j+1) diagonal,
  stiffness + advection + optional zero-order (Garding) shift assembled
  exactly, mass lumped by row sums so A_h stays a single sparse matrix.
* FV: two-point flux diffusion (diagonal D) plus first-order upwind
  advection on face velocities; M is the diagonal of cell volumes.

Dirichlet handling freezes the boundary DOFs: their rows of A_h are zero
(so exp(dt*A_h) and phi1(dt*A_h) act as the identity there and the implicit
matrix I - dt*A_h has identity rows), while interior rows keep their
couplings into the frozen DOFs, which carries the boundary value into the
domain. ``apply_dirichlet`` overwrites the frozen values; the integrators
call it on the initial state and after every step. For FV grids the frozen
DOFs are the cells adjacent to Dirichlet-tagged faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import InvalidArgumentError
from .grid import BoundaryTag, boundary_cells, boundary_nodes, cell_xy, node_xy
from .sparse import SparseOperator

_TAG_ORDER = (BoundaryTag.LEFT, BoundaryTag.RIGHT, BoundaryTag.BOTTOM, BoundaryTag.TOP)


class BCKind(Enum):
    NEUMANN_ZERO = "neumann_zero"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: BCKind
    value: float = 0.0


NEUMANN = BoundaryCondition(BCKind.NEUMANN_ZERO)


def dirichlet(value):
    return BoundaryCondition(BCKind.DIRICHLET, float(value))


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
            np.full((grid.nx + 1, grid.ny), float(qx)),
            np.full((grid.nx, grid.ny + 1), float(qy)),
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
    method: str  # "fem" | "fv"
    A: SparseOperator
    K: SparseOperator
    mass: np.ndarray
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray
    bc: dict = field(default_factory=dict)
    c0: float = 0.0

    @property
    def ndof(self):
        return self.A.n_rows

    def dof_xy(self):
        """Coordinate arrays of the DOF sites (nodes for FEM, centers for FV)."""
        return node_xy(self.grid) if self.method == "fem" else cell_xy(self.grid)


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


def _normalize_bc(bc):
    out = {tag: NEUMANN for tag in _TAG_ORDER}
    if bc:
        for tag, cond in bc.items():
            if tag not in out:
                raise InvalidArgumentError(f"unknown boundary tag {tag!r}")
            if not isinstance(cond, BoundaryCondition):
                raise InvalidArgumentError("boundary conditions must be BoundaryCondition instances")
            out[tag] = cond
    return out


def _dirichlet_arrays(grid, bc, ndof, select):
    mask = np.zeros(ndof, dtype=bool)
    values = np.zeros(ndof)
    for tag in _TAG_ORDER:  # fixed order: later tags win at shared corners
        cond = bc[tag]
        if cond.kind is BCKind.DIRICHLET:
            idx = select(grid, tag)
            mask[idx] = True
            values[idx] = cond.value
    return mask, values


# ---------------------------------------------------------------------------
# P1 finite elements
# ---------------------------------------------------------------------------

def _triangle_connectivity(grid):
    """Connectivity (ntri, 3) for the fixed-diagonal split, both orientations."""
    nxp = grid.nx + 1
    i, j = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny), indexing="ij")
    i = i.ravel()
    j = j.ravel()
    n00 = j * nxp + i
    n10 = j * nxp + i + 1
    n01 = (j + 1) * nxp + i
    n11 = (j + 1) * nxp + i + 1
    tri1 = np.column_stack([n00, n10, n11])  # lower-right triangle
    tri2 = np.column_stack([n00, n11, n01])  # upper-left triangle
    return tri1, tri2


def _p1_gradients(dx, dy):
    # Constant shape-function gradients for the two reference orientations.
    g1 = np.array([[-1.0 / dx, 0.0], [1.0 / dx, -1.0 / dy], [0.0, 1.0 / dy]])
    g2 = np.array([[0.0, -1.0 / dy], [1.0 / dx, 0.0], [-1.0 / dx, 1.0 / dy]])
    return g1, g2


def assemble_fem(grid, D, velocity=None, bc=None, c0=0.0):
    """Assemble the P1 FEM generator on the diagonally split rectangle mesh.

    Parameters
    ----------
    grid : Grid
    D : scalar, length-2, or SPD 2x2 array
        Diffusion tensor.
    velocity : None, (qx, qy) pair, or callable (x, y) -> (qx, qy)
        Advection velocity; callables are evaluated at triangle centroids.
    bc : dict {BoundaryTag: BoundaryCondition}, optional
        Missing tags default to zero Neumann (natural).
    c0 : float
        Zero-order shift added as c0 * (consistent mass); compensate in the
        reaction term F when using a nonzero shift.

    Returns
    -------
    DiscreteProblem
    """
    D = _as_tensor(D, diagonal_only=False)
    bc = _normalize_bc(bc)
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

        if velocity is not None:
            if callable(velocity):
                x, y = node_xy(grid)
                cx = x[conn].mean(axis=1)
                cy = y[conn].mean(axis=1)
                qx, qy = velocity(cx, cy)
                qx = np.broadcast_to(np.asarray(qx, dtype=np.float64), (ntri,))
                qy = np.broadcast_to(np.asarray(qy, dtype=np.float64), (ntri,))
            else:
                qx = np.full(ntri, float(velocity[0]))
                qy = np.full(ntri, float(velocity[1]))
            # int_T (q . grad phi_b) phi_a dx = (q . grad phi_b) * area / 3 for all a
            adv_b = (np.outer(qx, g[:, 0]) + np.outer(qy, g[:, 1])) * (area / 3.0)  # (ntri, 3)
            for a in range(3):
                for b in range(3):
                    rows.append(conn[:, a])
                    cols.append(conn[:, b])
                    vals.append(np.full(ntri, local[a, b]) + adv_b[:, b])
        else:
            for a in range(3):
                for b in range(3):
                    rows.append(conn[:, a])
                    cols.append(conn[:, b])
                    vals.append(np.full(ntri, local[a, b]))

        np.add.at(lumped, conn.ravel(), area / 3.0)

    K = SparseOperator.from_coo(
        grid.node_count,
        grid.node_count,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )
    mask, values = _dirichlet_arrays(grid, bc, grid.node_count, boundary_nodes)
    A = K.scale_rows(np.where(mask, 0.0, -1.0 / lumped))
    return DiscreteProblem(grid, "fem", A, K, lumped, mask, values, bc, float(c0))


# ---------------------------------------------------------------------------
# Cell-centered finite volumes
# ---------------------------------------------------------------------------

def assemble_fv(grid, D, q_faces=None, bc=None, c0=0.0):
    """Assemble the FV generator: TPFA diffusion + first-order upwind advection.

    Parameters
    ----------
    grid : Grid
    D : scalar, length-2, or diagonal 2x2 array
        Diffusion coefficients (Dx, Dy).
    q_faces : FaceVelocities, (qx, qy) pair, or None
        Face-normal velocities; a pair is expanded to constant fields.
    bc, c0 : as for assemble_fem.

    Notes
    -----
    Neumann-tagged faces carry zero diffusive flux; advective flux through
    boundary faces upwinds from the interior cell (free outflow) and
    assumes zero outside concentration on inflow. Dirichlet-tagged faces
    are enforced by freezing the adjacent cell layer.
    """
    D = _as_tensor(D, diagonal_only=True)
    bc = _normalize_bc(bc)
    if q_faces is None:
        q_faces = FaceVelocities.constant(grid, 0.0, 0.0)
    elif not isinstance(q_faces, FaceVelocities):
        q_faces = FaceVelocities.constant(grid, q_faces[0], q_faces[1])
    q_faces.validate(grid)

    nx, ny = grid.nx, grid.ny
    dx, dy = grid.dx, grid.dy
    vol = dx * dy
    Dx, Dy = D[0, 0], D[1, 1]

    def cell(i, j):
        return j * nx + i

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(c).ravel())
        vals.append(np.asarray(v, dtype=np.float64).ravel())

    # interior x-faces: between (i-1, j) and (i, j), i = 1..nx-1
    if nx > 1:
        i, j = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        L = cell(i - 1, j)
        R = cell(i, j)
        T = Dx * dy / dx
        add(L, R, np.full(L.size, T)); add(L, L, np.full(L.size, -T))
        add(R, L, np.full(L.size, T)); add(R, R, np.full(L.size, -T))
        u = q_faces.qx[1:nx, :] * dy  # volumetric advective rate, positive toward +x
        up = np.where(u >= 0, L, R)
        add(L, up, -u)
        add(R, up, u)
    # interior y-faces
    if ny > 1:
        i, j = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        B = cell(i, j - 1)
        Tc = cell(i, j)
        T = Dy * dx / dy
        add(B, Tc, np.full(B.size, T)); add(B, B, np.full(B.size, -T))
        add(Tc, B, np.full(B.size, T)); add(Tc, Tc, np.full(B.size, -T))
        u = q_faces.qy[:, 1:ny] * dx
        up = np.where(u >= 0, B, Tc)
        add(B, up, -u)
        add(Tc, up, u)

    # boundary faces: advective outflow only (zero inflow concentration);
    # zero diffusive flux on Neumann faces; Dirichlet cells get frozen below.
    j = np.arange(ny)
    u = q_faces.qx[0, :] * dy  # left boundary, outward normal -x: outflow when u < 0
    c = cell(0, j)
    add(c, c, np.where(u < 0, u, 0.0))
    u = q_faces.qx[nx, :] * dy  # right boundary, outward normal +x: outflow when u > 0
    c = cell(nx - 1, j)
    add(c, c, np.where(u > 0, -u, 0.0))
    i = np.arange(nx)
    u = q_faces.qy[:, 0] * dx  # bottom
    c = cell(i, 0)
    add(c, c, np.where(u < 0, u, 0.0))
    u = q_faces.qy[:, ny] * dx  # top
    c = cell(i, ny - 1)
    add(c, c, np.where(u > 0, -u, 0.0))

    N = SparseOperator.from_coo(
        grid.cell_count, grid.cell_count,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
    )
    # K in stiffness convention (A_h = -M^{-1} K), M = vol * I
    K = SparseOperator(
        -N.to_scipy() + c0 * vol * sp.identity(grid.cell_count, format="csr"))
    mask, values = _dirichlet_arrays(grid, bc, grid.cell_count, boundary_cells)
    masses = np.full(grid.cell_count, vol)
    A = K.scale_rows(np.where(mask, 0.0, -1.0 / masses))
    return DiscreteProblem(grid, "fv", A, K, masses, mask, values, bc, float(c0))


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
