"""Structured rectangular grids on [0, L1] x [0, L2].

Nodes and cells are ordered lexicographically with x running fastest, so
``node k = (i, j)`` with ``i = k % (nx + 1)`` and ``j = k // (nx + 1)``.
FEM state lives on nodes, FV state on cell centers; both index maps are
defined here so every other module agrees on DOF layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError


class BoundaryTag(Enum):
    LEFT = "left"      # x = 0
    RIGHT = "right"    # x = L1
    BOTTOM = "bottom"  # y = 0
    TOP = "top"        # y = L2


@dataclass(frozen=True)
class Grid:
    """Uniform rectangle grid: nx-by-ny cells, (nx+1)-by-(ny+1) nodes.

    Parameters
    ----------
    nx, ny : int
        Cell counts along x and y (>= 1).
    L1, L2 : float
        Domain side lengths (> 0).
    """

    nx: int
    ny: int
    L1: float
    L2: float

    @property
    def dx(self):
        return self.L1 / self.nx

    @property
    def dy(self):
        return self.L2 / self.ny

    @property
    def node_count(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def cell_count(self):
        return self.nx * self.ny


def build_grid(nx, ny, L1, L2):
    """Construct a Grid after validating shape arguments.

    Raises
    ------
    InvalidArgumentError
        If nx/ny are not positive integers or L1/L2 are not positive finite.
    """
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise InvalidArgumentError("nx and ny must be integers")
    if nx < 1 or ny < 1:
        raise InvalidArgumentError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    L1 = float(L1)
    L2 = float(L2)
    if not (np.isfinite(L1) and np.isfinite(L2)) or L1 <= 0 or L2 <= 0:
        raise InvalidArgumentError(f"domain lengths must be positive finite, got L1={L1}, L2={L2}")
    return Grid(int(nx), int(ny), L1, L2)


def node_coords(grid, k):
    """Coordinates (x, y) of node k in lexicographic (x fastest) order."""
    k = int(k)
    if k < 0 or k >= grid.node_count:
        raise IndexError(f"node index {k} out of range [0, {grid.node_count})")
    i = k % (grid.nx + 1)
    j = k // (grid.nx + 1)
    return (i * grid.dx, j * grid.dy)


def cell_coords(grid, k):
    """Center coordinates (x, y) of cell k in lexicographic order."""
    k = int(k)
    if k < 0 or k >= grid.cell_count:
        raise IndexError(f"cell index {k} out of range [0, {grid.cell_count})")
    i = k % grid.nx
    j = k // grid.nx
    return ((i + 0.5) * grid.dx, (j + 0.5) * grid.dy)


def node_xy(grid):
    """Arrays (x, y) of all node coordinates, shape (node_count,) each."""
    x = np.tile(np.arange(grid.nx + 1) * grid.dx, grid.ny + 1)
    y = np.repeat(np.arange(grid.ny + 1) * grid.dy, grid.nx + 1)
    return x, y

def cell_xy(grid):
    """Arrays (x, y) of all cell-center coordinates, shape (cell_count,)."""
    x = np.tile((np.arange(grid.nx) + 0.5) * grid.dx, grid.ny)
    y = np.repeat((np.arange(grid.ny) + 0.5) * grid.dy, grid.nx)
    return x, y


def boundary_nodes(grid, tag):
    """Node indices lying on the tagged boundary edge (corners included)."""
    nxp = grid.nx + 1
    if tag is BoundaryTag.LEFT:
        return np.arange(grid.ny + 1) * nxp
    if tag is BoundaryTag.RIGHT:
        return np.arange(grid.ny + 1) * nxp + grid.nx
    if tag is BoundaryTag.BOTTOM:
        return np.arange(nxp)
    if tag is BoundaryTag.TOP:
        return grid.ny * nxp + np.arange(nxp)
    raise InvalidArgumentError(f"unknown boundary tag {tag!r}")


def boundary_cells(grid, tag):
    """Indices of cells adjacent to the tagged boundary edge."""
    if tag is BoundaryTag.LEFT:
        return np.arange(grid.ny) * grid.nx
    if tag is BoundaryTag.RIGHT:
        return np.arange(grid.ny) * grid.nx + (grid.nx - 1)
    if tag is BoundaryTag.BOTTOM:
        return np.arange(grid.nx)
    if tag is BoundaryTag.TOP:
        return (grid.ny - 1) * grid.nx + np.arange(grid.nx)
    raise InvalidArgumentError(f"unknown boundary tag {tag!r}")
