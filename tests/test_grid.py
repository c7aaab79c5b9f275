"""Grid geometry and DOF-ordering tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setd.errors import InvalidArgumentError
from setd.grid import (
    BoundaryTag,
    boundary_cells,
    boundary_nodes,
    build_grid,
    cell_coords,
    cell_xy,
    node_coords,
    node_xy,
)


def test_basic_geometry():
    g = build_grid(4, 2, 2.0, 1.0)
    assert g.dx == 0.5 and g.dy == 0.5
    assert g.node_count == 5 * 3
    assert g.cell_count == 8
    assert node_coords(g, 0) == (0.0, 0.0)
    assert node_coords(g, 4) == (2.0, 0.0)        # x runs fastest
    assert node_coords(g, 5) == (0.0, 0.5)        # wraps to next row
    assert node_coords(g, g.node_count - 1) == (2.0, 1.0)
    assert cell_coords(g, 0) == (0.25, 0.25)
    assert cell_coords(g, g.cell_count - 1) == (1.75, 0.75)


def test_validation():
    with pytest.raises(InvalidArgumentError):
        build_grid(0, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_grid(4.0, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_grid(4, 4, -1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_grid(4, 4, np.inf, 1.0)
    with pytest.raises(IndexError):
        node_coords(build_grid(2, 2, 1.0, 1.0), 9)
    with pytest.raises(IndexError):
        cell_coords(build_grid(2, 2, 1.0, 1.0), 4)


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(1, 20), ny=st.integers(1, 20),
       L1=st.floats(0.1, 10), L2=st.floats(0.1, 10),
       data=st.data())
def test_xy_arrays_match_scalar_coords(nx, ny, L1, L2, data):
    g = build_grid(nx, ny, L1, L2)
    xn, yn = node_xy(g)
    xc, yc = cell_xy(g)
    assert xn.shape == (g.node_count,) and yc.shape == (g.cell_count,)
    k = data.draw(st.integers(0, g.node_count - 1))
    assert (xn[k], yn[k]) == node_coords(g, k)
    m = data.draw(st.integers(0, g.cell_count - 1))
    assert (xc[m], yc[m]) == cell_coords(g, m)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12))
def test_boundary_sets(nx, ny):
    g = build_grid(nx, ny, 1.0, 1.0)
    xn, yn = node_xy(g)
    left = boundary_nodes(g, BoundaryTag.LEFT)
    right = boundary_nodes(g, BoundaryTag.RIGHT)
    bottom = boundary_nodes(g, BoundaryTag.BOTTOM)
    top = boundary_nodes(g, BoundaryTag.TOP)
    tight = dict(rtol=1e-15, atol=1e-15)   # geometry arithmetic, last-ulp slack
    assert np.all(xn[left] == 0.0)
    np.testing.assert_allclose(xn[right], g.L1, **tight)
    assert np.all(yn[bottom] == 0.0)
    np.testing.assert_allclose(yn[top], g.L2, **tight)
    # the four edges cover exactly the boundary, corners shared pairwise
    interior = g.node_count - len(set(np.concatenate([left, right, bottom, top])))
    assert interior == (nx - 1) * (ny - 1)
    xc, yc = cell_xy(g)
    np.testing.assert_allclose(xc[boundary_cells(g, BoundaryTag.LEFT)], g.dx / 2, **tight)
    np.testing.assert_allclose(xc[boundary_cells(g, BoundaryTag.RIGHT)], g.L1 - g.dx / 2, **tight)
    np.testing.assert_allclose(yc[boundary_cells(g, BoundaryTag.BOTTOM)], g.dy / 2, **tight)
    np.testing.assert_allclose(yc[boundary_cells(g, BoundaryTag.TOP)], g.L2 - g.dy / 2, **tight)
