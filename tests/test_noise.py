"""Noise model tests: spectrum values, eigenfunction orthonormality,
increment laws, and bit-exact path refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setd.errors import InvalidArgumentError
from setd.grid import build_grid
from setd.noise import (
    NoiseSpec,
    eigenfunction_nodal,
    laplacian_eigenvalues,
    make_path,
    sample_increment,
    spectrum,
    spectrum_matrix,
    trace,
)
from setd.operators import quadrature_weights


def test_exponential_spectrum_values():
    spec = NoiseSpec.exponential()  # gamma=1, b1=b2=0.2
    assert spectrum(spec, 0, 0) == pytest.approx(1.0, rel=1e-15)
    # q(1,0) = exp(-(pi*0.2)^2 / (2*pi)) = exp(-0.02*pi)
    assert spectrum(spec, 1, 0) == pytest.approx(math.exp(-0.02 * math.pi), rel=1e-14)
    assert spectrum(spec, 1, 0) == pytest.approx(0.9391013674242088, rel=1e-12)
    assert spectrum(spec, 1, 0) == spectrum(spec, 0, 1)  # b1 == b2 symmetry
    # separable: q(i,j) * q(0,0) == q(i,0) * q(0,j)
    assert spectrum(spec, 3, 4) * spectrum(spec, 0, 0) == pytest.approx(
        spectrum(spec, 3, 0) * spectrum(spec, 0, 4), rel=1e-13)
    mat = spectrum_matrix(spec)
    assert mat.shape == (65, 65)
    assert mat[3, 4] == pytest.approx(spectrum(spec, 3, 4), rel=1e-14)
    # truncation tail is negligible at the default cutoff
    assert spectrum(spec, 64, 0) < 1e-22


def test_powerlaw_spectrum_values():
    spec = NoiseSpec.powerlaw(r=2.01)
    assert spectrum(spec, 1, 0) == 1.0
    assert spectrum(spec, 2, 3) == pytest.approx(5.0 ** -2.01, rel=1e-14)
    with pytest.raises(InvalidArgumentError):
        spectrum(spec, 0, 0)
    mat = spectrum_matrix(spec)
    assert mat[0, 0] == 0.0
    assert mat[2, 3] == pytest.approx(5.0 ** -2.01, rel=1e-14)
    assert np.isfinite(trace(spec))
    with pytest.raises(InvalidArgumentError):
        NoiseSpec.powerlaw(r=2.0)  # not trace class


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
    vecs = [eigenfunction_nodal(grid, i, j) for i, j in modes]
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            ip = float(np.sum(w * va * vb))
            assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


def test_eigenfunction_values():
    grid = build_grid(4, 4, 1.0, 1.0)
    e00 = eigenfunction_nodal(grid, 0, 0)
    np.testing.assert_allclose(e00, 1.0, rtol=1e-15)  # constant mode, unit L2 norm
    e10 = eigenfunction_nodal(grid, 1, 0)
    assert e10[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)   # cos(0)
    assert e10[4] == pytest.approx(-math.sqrt(2.0), rel=1e-15)  # cos(pi)
    cells = eigenfunction_nodal(grid, 1, 0, where="cells")
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
    basis = [eigenfunction_nodal(grid, i, j) for i, j in probes]
    coeffs = np.empty((nsamp, len(probes)))
    for r in range(nsamp):
        path = make_path(spec, 99, r, dt, 1)
        dW = sample_increment(path, grid, 0)
        coeffs[r] = [np.sum(w * b * dW) for b in basis]
    var = coeffs.var(axis=0)
    want = np.array([spectrum(spec, i, j) * dt for i, j in probes])
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
    spec = NoiseSpec.exponential(n1=6, n2=6)
    path = make_path(spec, 11, 0, 0.125, 8)
    for c in (2, 4):  # four terms: a different summation order would show
        blk = path.brownian_increment_modes(1, coarsening=c)
        for i, j in [(0, 0), (3, 2), (6, 6)]:
            assert path.brownian_increment(i, j, 1, coarsening=c) == blk[i, j]


def test_paths_decorrelated_across_realizations_and_seeds():
    spec = NoiseSpec.exponential(n1=4, n2=4)
    a = make_path(spec, 1, 0, 0.5, 2).normal_modes(0)
    b = make_path(spec, 1, 1, 0.5, 2).normal_modes(0)
    c = make_path(spec, 2, 0, 0.5, 2).normal_modes(0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # stream separation: aux draws never reuse Wiener randomness
    p = make_path(spec, 1, 0, 0.5, 2)
    assert not np.array_equal(p.normal_modes(0), p.aux_normals(0))
    # but the path itself is a pure function of its key
    np.testing.assert_array_equal(a, make_path(spec, 1, 0, 0.5, 2).normal_modes(0))


def test_cache_does_not_change_bits():
    spec = NoiseSpec.exponential(n1=8, n2=8)
    grid = build_grid(6, 6, 1.0, 1.0)
    path1 = make_path(spec, 3, 0, 0.25, 4)
    first = sample_increment(path1, grid, 0, coarsening=4)
    again = sample_increment(path1, grid, 0, coarsening=4)  # cache hit
    fresh = sample_increment(make_path(spec, 3, 0, 0.25, 4), grid, 0, coarsening=4)
    np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(first, fresh)


def test_no_block_kept_for_a_step_whose_field_is_cached():
    # fields of steps 0-3 are cached first; a coarse increment over steps
    # 2-3 afterwards must not keep blocks that no field assembly will take
    spec = NoiseSpec.exponential(n1=8, n2=8)
    grid = build_grid(6, 6, 1.0, 1.0)
    path = make_path(spec, 3, 0, 0.25, 4)
    for s in range(4):
        sample_increment(path, grid, s)
    pair = path.brownian_increment_modes(1, coarsening=2)
    assert path._kept == {}
    fresh = make_path(spec, 3, 0, 0.25, 4)
    np.testing.assert_array_equal(pair, fresh.brownian_increment_modes(1, coarsening=2))
    # without cached fields the blocks are still kept for the fields to take
    assert sorted(fresh._kept) == [2, 3]


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
    path = make_path(spec, 0, 0, 0.5, 2)
    with pytest.raises(InvalidArgumentError):
        path.normal_modes(2)  # beyond horizon
    with pytest.raises(InvalidArgumentError):
        path.brownian_increment_modes(1, coarsening=2)  # needs fine steps [2, 4)
    with pytest.raises(InvalidArgumentError):
        path.brownian_increment(5, 0, 0)  # outside mode lattice
    grid = build_grid(4, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        sample_increment(path, grid, 0, where="edges")
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
