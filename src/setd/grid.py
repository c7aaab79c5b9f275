"""Structured rectangular grids on [0, L1] x [0, L2] and their site lattices.

Two site families live on a grid: ``"nodes"`` ((nx+1) x (ny+1), FEM state)
and ``"cells"`` (nx x ny cell centers, FV and Darcy state). This module is
the one place that states their conventions, and every other module
(assembly, Darcy, the noise basis, the CLI) asks it:

* :func:`site_index` -- the flat DOF index of each site as an [i, j] array,
  x running fastest (site (i, j) is flat ``j * mx + i``, mx sites per row);
* :func:`site_axes` and :func:`site_xy` -- site coordinates;
* :func:`boundary_sites` -- the sites along a tagged edge;
* :func:`interior_faces` -- the cell pairs across each interior face.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError, check_int, check_real


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
    return Grid(check_int(nx, "nx", 1), check_int(ny, "ny", 1),
                check_real(L1, "L1", 0, open_lo=True), check_real(L2, "L2", 0, open_lo=True))


def _lattice_shape(grid, where):
    if where == "nodes":
        return grid.nx + 1, grid.ny + 1
    if where == "cells":
        return grid.nx, grid.ny
    raise InvalidArgumentError(f"unknown site family {where!r}; expected 'nodes' or 'cells'")


def site_index(grid, where):
    """Flat index of each site as an [i, j] array, x fastest: the DOF order."""
    mx, my = _lattice_shape(grid, where)
    return np.arange(mx * my).reshape(my, mx).T


def site_axes(grid, where):
    """1-D x and y coordinates of the site lattice (nodes or cell centers)."""
    mx, my = _lattice_shape(grid, where)
    shift = 0.0 if where == "nodes" else 0.5
    return (np.arange(mx) + shift) * grid.dx, (np.arange(my) + shift) * grid.dy


def site_xy(grid, where):
    """Arrays (x, y) of every site's coordinates in flat DOF order."""
    x, y = site_axes(grid, where)
    return np.tile(x, y.size), np.repeat(y, x.size)


def boundary_sites(grid, tag, where):
    """Flat indices of the sites along the tagged edge, corner nodes included."""
    idx = site_index(grid, where)
    edges = {BoundaryTag.LEFT: idx[0], BoundaryTag.RIGHT: idx[-1],
             BoundaryTag.BOTTOM: idx[:, 0], BoundaryTag.TOP: idx[:, -1]}
    if tag not in edges:
        raise InvalidArgumentError(f"unknown boundary tag {tag!r}")
    return edges[tag]


def interior_faces(grid):
    """Per axis, x first: (lower, upper, select) for the faces between cells.

    ``lower`` and ``upper`` are [i, j] arrays of the flat indices of the
    cells on either side of each interior face; ``select`` picks those faces
    from an array in :class:`setd.operators.FaceVelocities` layout (qx or
    qy). A grid one cell wide along an axis has no faces there: empty arrays.
    """
    idx = site_index(grid, "cells")
    return ((idx[:-1, :], idx[1:, :], np.s_[1:-1, :]),
            (idx[:, :-1], idx[:, 1:], np.s_[:, 1:-1]))
