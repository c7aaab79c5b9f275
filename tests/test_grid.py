"""Grid geometry and DOF-ordering tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setd.errors import InvalidArgumentError
from setd.grid import (
    BoundaryTag,
    boundary_sites,
    build_grid,
    interior_faces,
    site_axes,
    site_index,
    site_xy,
)
from setd.harness import advection_study, linear_additive_study
from setd.noise import NoiseSpec, make_path, sample_increment

FAMILIES = ("nodes", "cells")


def test_basic_geometry():
    g = build_grid(4, 2, 2.0, 1.0)
    assert g.dx == 0.5 and g.dy == 0.5
    assert g.node_count == 5 * 3
    assert g.cell_count == 8
    xn, yn = site_xy(g, "nodes")
    assert (xn[0], yn[0]) == (0.0, 0.0)
    assert (xn[4], yn[4]) == (2.0, 0.0)            # x runs fastest
    assert (xn[5], yn[5]) == (0.0, 0.5)            # wraps to next row
    assert (xn[-1], yn[-1]) == (2.0, 1.0)
    xc, yc = site_xy(g, "cells")
    assert (xc[0], yc[0]) == (0.25, 0.25)
    assert (xc[-1], yc[-1]) == (1.75, 0.75)
    assert site_index(g, "nodes")[4, 0] == 4 and site_index(g, "nodes")[0, 1] == 5


def test_validation():
    with pytest.raises(InvalidArgumentError):
        build_grid(0, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_grid(4.0, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_grid(4, 4, -1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        build_grid(4, 4, np.inf, 1.0)
    with pytest.raises(InvalidArgumentError):
        boundary_sites(build_grid(2, 2, 1.0, 1.0), "left", "nodes")


def test_bool_grid_sizes_are_rejected():
    # bool is an int subclass: True used to build a one-cell-wide grid
    for nx, ny in ((True, 4), (4, False), (np.bool_(True), 4)):
        with pytest.raises(InvalidArgumentError, match="integers"):
            build_grid(nx, ny, 1.0, 1.0)
    for kwargs in ({"nx": True}, {"ny": False}):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            linear_additive_study(**kwargs)
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            advection_study(**kwargs)
    assert type(linear_additive_study(nx=np.int64(8)).nx) is int
    assert build_grid(np.int64(3), 2, 1.0, 1.0) == build_grid(3, 2, 1.0, 1.0)


def test_unknown_site_family():
    g = build_grid(4, 4, 1.0, 1.0)
    for helper in (site_xy, site_axes, site_index):
        with pytest.raises(InvalidArgumentError, match="edges"):
            helper(g, "edges")
    with pytest.raises(InvalidArgumentError, match="edges"):
        boundary_sites(g, BoundaryTag.LEFT, "edges")
    path = make_path(NoiseSpec.exponential(n1=4, n2=4), 0, 0, 0.5, 2)
    with pytest.raises(InvalidArgumentError, match="edges"):
        sample_increment(path, g, 0, where="edges")


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(1, 20), ny=st.integers(1, 20),
       L1=st.floats(0.1, 10), L2=st.floats(0.1, 10),
       data=st.data())
def test_xy_arrays_match_scalar_coords(nx, ny, L1, L2, data):
    # flat index k is site (k % mx, k // mx): node i sits at x = i dx, cell
    # i at x = (i + 1/2) dx
    g = build_grid(nx, ny, L1, L2)
    xn, yn = site_xy(g, "nodes")
    xc, yc = site_xy(g, "cells")
    assert xn.shape == (g.node_count,) and yc.shape == (g.cell_count,)
    k = data.draw(st.integers(0, g.node_count - 1))
    i, j = k % (nx + 1), k // (nx + 1)
    assert (xn[k], yn[k]) == (i * g.dx, j * g.dy)
    m = data.draw(st.integers(0, g.cell_count - 1))
    i, j = m % nx, m // nx
    assert (xc[m], yc[m]) == ((i + 0.5) * g.dx, (j + 0.5) * g.dy)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12))
def test_boundary_sets(nx, ny):
    g = build_grid(nx, ny, 1.0, 1.0)
    xn, yn = site_xy(g, "nodes")
    left, right, bottom, top = (boundary_sites(g, tag, "nodes") for tag in BoundaryTag)
    tight = dict(rtol=1e-15, atol=1e-15)   # geometry arithmetic, last-ulp slack
    assert np.all(xn[left] == 0.0)
    np.testing.assert_allclose(xn[right], g.L1, **tight)
    assert np.all(yn[bottom] == 0.0)
    np.testing.assert_allclose(yn[top], g.L2, **tight)
    # the four edges cover exactly the boundary, corners shared pairwise
    interior = g.node_count - len(set(np.concatenate([left, right, bottom, top])))
    assert interior == (nx - 1) * (ny - 1)
    xc, yc = site_xy(g, "cells")
    np.testing.assert_allclose(xc[boundary_sites(g, BoundaryTag.LEFT, "cells")], g.dx / 2, **tight)
    np.testing.assert_allclose(xc[boundary_sites(g, BoundaryTag.RIGHT, "cells")],
                               g.L1 - g.dx / 2, **tight)
    np.testing.assert_allclose(yc[boundary_sites(g, BoundaryTag.BOTTOM, "cells")], g.dy / 2, **tight)
    np.testing.assert_allclose(yc[boundary_sites(g, BoundaryTag.TOP, "cells")],
                               g.L2 - g.dy / 2, **tight)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12), where=st.sampled_from(FAMILIES))
def test_site_lattices(nx, ny, where):
    g = build_grid(nx, ny, 2.0, 0.5)
    idx = site_index(g, where)
    mx, my = (nx + 1, ny + 1) if where == "nodes" else (nx, ny)
    assert idx.shape == (mx, my)
    # a permutation of the flat DOFs, x fastest, agreeing with the coordinates
    assert np.array_equal(np.sort(idx.ravel()), np.arange(mx * my))
    i, j = np.meshgrid(np.arange(mx), np.arange(my), indexing="ij")
    assert np.array_equal(idx, j * mx + i)
    x, y = site_xy(g, where)
    xa, ya = site_axes(g, where)
    assert np.array_equal(x[idx], xa[i]) and np.array_equal(y[idx], ya[j])
    # each edge's sites are exactly the sites with that extreme coordinate
    edges = {BoundaryTag.LEFT: x == xa.min(), BoundaryTag.RIGHT: x == xa.max(),
             BoundaryTag.BOTTOM: y == ya.min(), BoundaryTag.TOP: y == ya.max()}
    for tag, on_edge in edges.items():
        sites = boundary_sites(g, tag, where)
        assert len(set(sites)) == len(sites)
        assert set(sites) == set(np.flatnonzero(on_edge))


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12))
def test_interior_faces(nx, ny):
    g = build_grid(nx, ny, 2.0, 0.5)
    xc, yc = site_xy(g, "cells")
    xn, yn = site_axes(g, "nodes")
    faces = interior_faces(g)
    assert sum(lo.size for lo, _, _ in faces) == (nx - 1) * ny + nx * (ny - 1)
    # FaceVelocities layout: face coordinate along the normal, per face
    layouts = (np.broadcast_to(xn[:, None], (nx + 1, ny)),
               np.broadcast_to(yn[None, :], (nx, ny + 1)))
    blocks = ((nx - 1, ny), (nx, ny - 1))
    for axis, (lo, hi, select) in enumerate(faces):
        assert lo.shape == hi.shape == blocks[axis]
        assert layouts[axis][select].shape == blocks[axis]
        along, across = ((xc, yc), (yc, xc))[axis]
        step = (g.dx, g.dy)[axis]
        # each pair is adjacent along its axis, aligned across it ...
        np.testing.assert_allclose(along[hi] - along[lo], step, rtol=1e-12)
        assert np.array_equal(across[hi], across[lo])
        # ... and the selector picks the face between them
        np.testing.assert_allclose(layouts[axis][select], along[lo] + step / 2, rtol=1e-12)
