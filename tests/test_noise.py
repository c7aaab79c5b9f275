"""Noise model tests: spectrum values, eigenfunction orthonormality,
increment laws, and bit-exact path refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setd import kernels
from setd.errors import InvalidArgumentError
from setd.grid import build_grid, site_axes
from setd.noise import (
    NoisePath,
    NoiseSpec,
    alias_classes,
    laplacian_eigenvalues,
    make_path,
    modes_at_sites,
    sample_increment,
    spectrum_matrix,
)
from setd.operators import quadrature_weights


def _mode(grid, i, j, where="nodes"):
    """e_{i,j} at the grid sites: the cosine series of a unit coefficient."""
    coeff = np.zeros((i + 1, j + 1))
    coeff[i, j] = 1.0
    return modes_at_sites(coeff, grid, where)


def test_exponential_spectrum_values():
    spec = NoiseSpec.exponential()  # gamma=1, b1=b2=0.2
    q = spectrum_matrix(spec)
    assert q.shape == (65, 65)
    assert q[0, 0] == pytest.approx(1.0, rel=1e-15)
    # q(1,0) = exp(-(pi*0.2)^2 / (2*pi)) = exp(-0.02*pi)
    assert q[1, 0] == pytest.approx(math.exp(-0.02 * math.pi), rel=1e-14)
    assert q[1, 0] == pytest.approx(0.9391013674242088, rel=1e-12)
    assert q[1, 0] == q[0, 1]  # b1 == b2 symmetry
    # separable: q(i,j) * q(0,0) == q(i,0) * q(0,j)
    assert q[3, 4] * q[0, 0] == pytest.approx(q[3, 0] * q[0, 4], rel=1e-13)
    assert q[3, 4] == pytest.approx(
        math.exp(-((3 * math.pi * 0.2) ** 2 + (4 * math.pi * 0.2) ** 2) / (2 * math.pi)),
        rel=1e-14)
    # truncation tail is negligible at the default cutoff
    assert q[64, 0] < 1e-22


def test_powerlaw_spectrum_values():
    spec = NoiseSpec.powerlaw(r=2.01)
    q = spectrum_matrix(spec)
    assert q[1, 0] == 1.0
    assert q[2, 3] == pytest.approx(5.0 ** -2.01, rel=1e-14)
    assert q[0, 0] == 0.0  # (i+j)^-r is undefined there: the constant mode has no noise
    assert np.isfinite(q.sum())
    with pytest.raises(InvalidArgumentError):
        NoiseSpec.powerlaw(r=2.0)  # not trace class
    # NaN passes every ordered comparison's "else" and Inf every lower
    # bound; either would reach the spectrum and a study's report
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("gamma", "b1", "b2", "L1", "L2"):
            with pytest.raises(InvalidArgumentError, match=name):
                NoiseSpec.exponential(**{name: bad})
        for name in ("r", "L1", "L2"):
            with pytest.raises(InvalidArgumentError, match=name):
                NoiseSpec.powerlaw(**{name: bad})


def test_laplacian_eigenvalues():
    spec = NoiseSpec.exponential(n1=3, n2=2, L1=2.0, L2=1.0)
    lam = laplacian_eigenvalues(spec)
    assert lam.shape == (4, 3)
    assert lam[0, 0] == 0.0
    assert lam[2, 1] == pytest.approx((2 * np.pi / 2.0) ** 2 + (np.pi / 1.0) ** 2, rel=1e-14)


def test_eigenfunctions_orthonormal_under_quadrature():
    # cosine modes below the grid Nyquist are exactly orthonormal in the
    # trapezoid inner product on uniform nodes
    grid = build_grid(16, 16, 1.0, 1.0)
    w = quadrature_weights(grid, grid.node_count)
    modes = [(0, 0), (1, 0), (0, 1), (2, 3), (5, 5), (7, 2)]
    vecs = [_mode(grid, i, j) for i, j in modes]
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            ip = float(np.sum(w * va * vb))
            assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_eigenfunction_values():
    grid = build_grid(4, 4, 1.0, 1.0)
    e00 = _mode(grid, 0, 0)
    np.testing.assert_allclose(e00, 1.0, rtol=1e-15)  # constant mode, unit L2 norm
    e10 = _mode(grid, 1, 0)
    assert e10[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)   # cos(0)
    assert e10[4] == pytest.approx(-math.sqrt(2.0), rel=1e-15)  # cos(pi)
    cells = _mode(grid, 1, 0, where="cells")
    assert cells.shape == (16,)
    assert cells[0] == pytest.approx(math.sqrt(2.0) * math.cos(np.pi * 0.125), rel=1e-14)


def test_increment_law_variance():
    # <DW, e_ij>_{L2} accumulates q_ij * dt of variance per unit time; check
    # the per-mode variance and cross-mode independence by Monte Carlo
    spec = NoiseSpec.exponential(n1=8, n2=8)
    grid = build_grid(12, 12, 1.0, 1.0)
    w = quadrature_weights(grid, grid.node_count)
    dt = 0.25
    nsamp = 4000
    probes = [(0, 0), (1, 0), (2, 2)]
    basis = [_mode(grid, i, j) for i, j in probes]
    coeffs = np.empty((nsamp, len(probes)))
    for r in range(nsamp):
        path = make_path(spec, 99, r, dt, 1)
        dW = sample_increment(path, grid, 0)
        coeffs[r] = [np.sum(w * b * dW) for b in basis]
    var = coeffs.var(axis=0)
    want = np.array([spectrum_matrix(spec)[i, j] * dt for i, j in probes])
    # relative MC error ~ sqrt(2/n) ~ 2.2%; allow 4 sigma
    np.testing.assert_allclose(var, want, rtol=4 * math.sqrt(2.0 / nsamp))
    corr = np.corrcoef(coeffs.T)
    assert np.abs(corr[np.triu_indices(3, k=1)]).max() < 4.0 / math.sqrt(nsamp)


def test_refinement_bit_exact():
    spec = NoiseSpec.exponential(n1=16, n2=16)
    grid = build_grid(8, 8, 1.0, 1.0)
    path = make_path(spec, 5, 2, 1.0 / 64, 64)
    for c in (2, 4, 8, 16):
        coarse = sample_increment(path, grid, 0, coarsening=c)
        acc = sample_increment(path, grid, 0).copy()
        for s in range(1, c):
            acc += sample_increment(path, grid, s)
        np.testing.assert_array_equal(coarse, acc)
        # and at mode level
        m_coarse = path.brownian_increment_modes(0, coarsening=c)
        m_acc = path.brownian_increment_modes(0).copy()
        for s in range(1, c):
            m_acc += path.brownian_increment_modes(s)
        np.testing.assert_array_equal(m_coarse, m_acc)


def test_scalar_probe_matches_block_law():
    # each entry of a block increment is the scalar sum of that mode's
    # scaled fine draws, accumulated in step order
    spec = NoiseSpec.exponential(n1=6, n2=6)
    path = make_path(spec, 11, 0, 0.125, 8)
    sdt = math.sqrt(0.125)
    for c in (2, 4):  # four terms: a different summation order would show
        blk = path.brownian_increment_modes(1, coarsening=c)
        for i, j in [(0, 0), (3, 2), (6, 6)]:
            probe = sdt * path.normal_modes(c)[i, j]
            for s in range(c + 1, 2 * c):
                probe += sdt * path.normal_modes(s)[i, j]
            assert probe == blk[i, j]


def test_paths_decorrelated_across_realizations_and_seeds():
    spec = NoiseSpec.exponential(n1=4, n2=4)
    a = make_path(spec, 1, 0, 0.5, 2).normal_modes(0)
    b = make_path(spec, 1, 1, 0.5, 2).normal_modes(0)
    c = make_path(spec, 2, 0, 0.5, 2).normal_modes(0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # stream separation: the reference's remainder draws (stream 1) and the
    # class draws (stream 2) never reuse the mode draws of the same step
    k0, k1 = kernels.derive_key(1, 0)
    blocks = [kernels.normal_block(k0, k1, 5, 5, 0, stream) for stream in (0, 1, 2)]
    np.testing.assert_array_equal(blocks[0], a)
    assert not np.array_equal(blocks[0], blocks[1])
    assert not np.array_equal(blocks[0], blocks[2])
    assert not np.array_equal(blocks[1], blocks[2])
    # but the path itself is a pure function of its key
    np.testing.assert_array_equal(a, make_path(spec, 1, 0, 0.5, 2).normal_modes(0))


def test_cache_does_not_change_bits():
    spec = NoiseSpec.exponential(n1=8, n2=8)
    grid = build_grid(6, 6, 1.0, 1.0)
    path1 = make_path(spec, 3, 0, 0.25, 4, sites=(grid, "nodes"))
    first = sample_increment(path1, grid, 0, coarsening=4)
    again = sample_increment(path1, grid, 0, coarsening=4)  # cache hit
    fresh = sample_increment(make_path(spec, 3, 0, 0.25, 4), grid, 0, coarsening=4)
    np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(first, fresh)


def test_bound_path_serves_other_lattices_fresh():
    # a path bound to nodes projects a cells request afresh, with the bits
    # of an unbound path, and stores only its nodal fields
    spec = NoiseSpec.exponential(n1=8, n2=8)
    grid = build_grid(6, 5, 1.0, 1.0)
    bound = make_path(spec, 3, 0, 0.25, 4, sites=(grid, "nodes"))
    free = make_path(spec, 3, 0, 0.25, 4)
    for c, k in ((1, 0), (1, 3), (2, 1), (4, 0)):
        for where in ("cells", "nodes"):
            np.testing.assert_array_equal(sample_increment(bound, grid, k, c, where),
                                          sample_increment(free, grid, k, c, where))
    assert sorted(bound._fields) == [0, 1, 2, 3]
    assert all(f.size == grid.node_count for f in bound._fields.values())


def test_path_equality_means_same_draws():
    # stored fields and the bound lattice are not compared: two paths with
    # fields compare without error, and serving a field changes nothing
    spec = NoiseSpec.exponential(n1=4, n2=4)
    grid = build_grid(4, 4, 1.0, 1.0)
    for sites in (None, (grid, "nodes")):
        a = make_path(spec, 3, 0, 0.25, 4, sites=sites)
        b = make_path(spec, 3, 0, 0.25, 4)
        sample_increment(a, grid, 0)
        assert a == b
        sample_increment(b, grid, 1)
        assert a == b
        assert a != make_path(spec, 4, 0, 0.25, 4)


def _cosines(coords, length, n):
    """e_k(coords) for k = 0..n from the cosine formula, shape (n+1, len(coords))."""
    k = np.arange(n + 1)[:, None]
    return np.where(k == 0, math.sqrt(1.0 / length),
                    math.sqrt(2.0 / length) * np.cos(k * np.pi * coords[None, :] / length))


ALIAS_GRIDS = [build_grid(32, 32, 1.0, 1.0), build_grid(5, 3, 1.0, 2.0)]
ALIAS_SPECS = [lambda n1, n2, L2: NoiseSpec.exponential(n1=n1, n2=n2, L2=L2),
               lambda n1, n2, L2: NoiseSpec.powerlaw(n1=n1, n2=n2, L2=L2)]


@pytest.mark.parametrize("where", ["nodes", "cells"])
@pytest.mark.parametrize("grid", ALIAS_GRIDS, ids=["32x32", "5x3"])
@pytest.mark.parametrize("make_spec", ALIAS_SPECS, ids=["exponential", "powerlaw"])
def test_class_covariance_equals_mode_covariance(make_spec, grid, where):
    # sum_j sigma_j^2 e_j e_j^T over the classes equals sum_k q_k e_k e_k^T
    # over every mode, at every pair of sites; the 32x32 grid takes the
    # presets' truncations, the 5x3 grid aliases on both axes
    n1, n2 = (64, 100) if grid.nx == 32 else (17, 11)
    spec = make_spec(n1, n2, grid.L2)
    _, _, sigma = alias_classes(spec, grid, where)
    x, y = site_axes(grid, where)
    ex, ey = _cosines(x, grid.L1, n1), _cosines(y, grid.L2, n2)

    def covariance(var):
        # Cov[(i, k), (i', k')] = sum_ab var_ab ex_a(i) ex_a(i') ey_b(k) ey_b(k')
        fx = np.einsum("ai,aj->aij", ex[:var.shape[0]], ex[:var.shape[0]]).reshape(var.shape[0], -1)
        fy = np.einsum("bk,bl->bkl", ey[:var.shape[1]], ey[:var.shape[1]]).reshape(var.shape[1], -1)
        return fx.T @ var @ fy

    want = covariance(spectrum_matrix(spec))
    got = covariance(sigma ** 2)
    assert sigma.shape == (min(n1 + 1, x.size), min(n2 + 1, y.size))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_alias_class_maps():
    # mode k against its class j_k and weight a_k along one axis: with
    # n2 = 0 the classes and weights / sqrt(q) are the x axis's maps
    grid = build_grid(4, 1, 1.0, 1.0)
    spec = NoiseSpec.exponential(n1=17, n2=0)
    r2 = math.sqrt(2.0)
    want = {"cells": ([0, 1, 2, 3, 0, 3, 2, 1, 0, 1, 2, 3, 0, 3, 2, 1, 0, 1],
                      [1, 1, 1, 1, 0, -1, -1, -1, -r2, -1, -1, -1, 0, 1, 1, 1, r2, 1], 4),
            "nodes": ([0, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1, 0, 1],
                      [1] * 8 + [r2] + [1] * 7 + [r2, 1], 5)}
    for where, (classes, weights, count) in want.items():
        got_classes, got_weights, sigma = alias_classes(spec, grid, where)
        np.testing.assert_array_equal(got_classes, classes)
        np.testing.assert_allclose(got_weights[:, 0] / np.sqrt(spectrum_matrix(spec)[:, 0]),
                                   weights, rtol=1e-15, atol=0)
        assert sigma.shape == (count, 1)
        # and every mode is a_k times its class at the sites
        x = site_axes(grid, where)[0]
        e = _cosines(x, 1.0, 17)
        np.testing.assert_allclose(e, np.array(weights)[:, None] * e[classes], atol=1e-14)
    # with more cells than modes every mode is its own class
    wide = build_grid(40, 30, 1.0, 1.0)
    for where in ("nodes", "cells"):
        classes, weights, sigma = alias_classes(NoiseSpec.powerlaw(n1=6, n2=4), wide, where)
        assert sigma.shape == (7, 5)
        np.testing.assert_array_equal(classes, np.arange(35))
        np.testing.assert_allclose(sigma ** 2, spectrum_matrix(NoiseSpec.powerlaw(n1=6, n2=4)),
                                   rtol=1e-15, atol=0)


def test_unbound_mode_increments_are_the_stream0_block():
    spec = NoiseSpec.exponential(n1=9, n2=6)
    path = make_path(spec, 1, 0, 0.01, 4)
    k0, k1 = kernels.derive_key(1, 0)
    for step in range(4):
        block = kernels.normal_block(k0, k1, 10, 7, step, 0)
        np.testing.assert_array_equal(path.brownian_increment_modes(step),
                                      math.sqrt(0.01) * block)


def test_path_validation():
    spec = NoiseSpec.exponential(n1=4, n2=4)
    with pytest.raises(InvalidArgumentError):
        make_path(spec, 0, -1, 0.5, 2)
    with pytest.raises(InvalidArgumentError):
        make_path(spec, 0, 0, 0.0, 2)
    with pytest.raises(InvalidArgumentError):
        make_path(spec, 0, 0, 0.5, -1)
    # a step is one 64-bit counter word: the last step of the longest path
    # is 2^64 - 1
    longest = make_path(spec, 0, 0, 0.5, 2**64)
    assert longest.normal_modes(2**64 - 1).shape == (5, 5)
    with pytest.raises(InvalidArgumentError):
        make_path(spec, 0, 0, 0.5, 2**64 + 1)
    # Philox keys take the seed mod 2^64, so seeds outside [0, 2^64) would
    # alias seeds inside it
    for seed in (-1, 2**64):
        with pytest.raises(InvalidArgumentError, match="seed"):
            make_path(spec, seed, 0, 0.5, 1)
    # and the realization mod 2^64: realization 2^64 would draw realization
    # 0's blocks, built through make_path or directly
    for realization in (-1, 2**64):
        with pytest.raises(InvalidArgumentError, match="realization"):
            make_path(spec, 3, realization, 0.5, 1)
        with pytest.raises(InvalidArgumentError, match="realization"):
            NoisePath(spec, 3, realization, 0.5, 1)
    last = make_path(spec, 3, 2**64 - 1, 0.5, 1).normal_modes(0)
    assert last.tobytes() != make_path(spec, 3, 0, 0.5, 1).normal_modes(0).tobytes()
    path = make_path(spec, 0, 0, 0.5, 2)
    with pytest.raises(InvalidArgumentError):
        path.normal_modes(2)  # beyond horizon
    with pytest.raises(InvalidArgumentError):
        path.brownian_increment_modes(1, coarsening=2)  # needs fine steps [2, 4)
    grid = build_grid(4, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        sample_increment(path, grid, 0, where="edges")
    # the unit-square spectrum on a 2 x 2 grid's sites would put one
    # domain's spectrum on another's eigenfunctions
    with pytest.raises(InvalidArgumentError, match="domain"):
        make_path(spec, 0, 0, 0.5, 2, sites=(build_grid(4, 4, 2.0, 2.0), "nodes"))
    with pytest.raises(InvalidArgumentError):
        NoiseSpec.exponential(gamma=-1.0)
    with pytest.raises(InvalidArgumentError):
        NoiseSpec.exponential(b1=0.0)
    # a float truncation would pass the spec and fail inside a study's
    # block draw with an untyped TypeError
    for name in ("n1", "n2"):
        for bad in (2.5, True, "4", None):
            with pytest.raises(InvalidArgumentError, match=name):
                NoiseSpec.exponential(**{name: bad})
            with pytest.raises(InvalidArgumentError, match=name):
                NoiseSpec.powerlaw(**{name: bad})
    spec = NoiseSpec.powerlaw(n1=np.int64(4), n2=np.int64(3))
    assert (type(spec.n1), type(spec.n2)) == (int, int)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 50), st.integers(0, 30))
def test_increments_pure_functions_of_key(seed, realization, step):
    spec = NoiseSpec.exponential(n1=2, n2=2)
    p1 = make_path(spec, seed, realization, 0.1, 31)
    p2 = make_path(spec, seed, realization, 0.1, 31)
    np.testing.assert_array_equal(p1.normal_modes(step), p2.normal_modes(step))
