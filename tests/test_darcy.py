"""Pressure solver tests: exact uniform-flow reproduction, conservation on
heterogeneous fields, and the streak-flux structure."""

import numpy as np
import pytest

from setd.darcy import (
    PermeabilityField,
    divergence,
    flux_balance,
    solve_darcy,
    solve_pressure,
    velocity_from_pressure,
)
from setd.errors import InvalidArgumentError
from setd.grid import build_grid, cell_xy


def test_constant_permeability_uniform_flow():
    # k = 1, p: 1 -> 0 over unit square gives p = 1 - x and q = (1, 0)
    grid = build_grid(20, 20, 1.0, 1.0)
    perm = PermeabilityField.homogeneous(grid, 1.0)
    p, vel = solve_darcy(perm, p_left=1.0, p_right=0.0)
    x, _ = cell_xy(grid)
    np.testing.assert_allclose(p, 1.0 - x, rtol=0, atol=1e-10)
    np.testing.assert_allclose(vel.qx, 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(vel.qy, 0.0, rtol=0, atol=1e-10)


def test_constant_permeability_scaling():
    # doubling k/mu doubles the flux; scaling the pressure drop scales both
    grid = build_grid(10, 10, 1.0, 1.0)
    base = solve_darcy(PermeabilityField.homogeneous(grid, 1.0))[1]
    double = solve_darcy(PermeabilityField.homogeneous(grid, 2.0))[1]
    np.testing.assert_allclose(double.qx, 2 * base.qx, rtol=1e-12, atol=1e-12)
    half_mu = solve_darcy(PermeabilityField.homogeneous(grid, 1.0, mu=2.0))[1]
    np.testing.assert_allclose(half_mu.qx, 0.5 * base.qx, rtol=1e-12, atol=1e-12)
    p, vel = solve_darcy(PermeabilityField.homogeneous(grid, 1.0), p_left=3.0, p_right=1.0)
    np.testing.assert_allclose(vel.qx, 2.0, rtol=0, atol=1e-10)
    x, _ = cell_xy(grid)
    np.testing.assert_allclose(p, 3.0 - 2.0 * x, rtol=0, atol=1e-10)


def test_streaks_divergence_free_and_balanced():
    grid = build_grid(32, 32, 1.0, 1.0)
    perm = PermeabilityField.streaks(grid, contrast=100.0)
    p, vel = solve_darcy(perm)
    qmax = max(np.abs(vel.qx).max(), np.abs(vel.qy).max())
    div = divergence(grid, vel)
    assert np.abs(div).max() <= 1e-10 * qmax
    inflow, outflow = flux_balance(grid, vel)
    assert inflow == pytest.approx(outflow, rel=1e-10)
    assert inflow > 0


def test_streaks_concentrate_flux():
    grid = build_grid(32, 32, 1.0, 1.0)
    perm = PermeabilityField.streaks(grid, contrast=100.0, centers=(0.25, 0.5, 0.75))
    _, vel = solve_darcy(perm)
    # row-averaged |qx| across the midline: streak rows carry far more flux
    mid = np.abs(vel.qx[grid.nx // 2, :])
    streak_rows = np.where(perm.k[0, :] > 1.0)[0]
    other_rows = np.where(perm.k[0, :] == 1.0)[0]
    assert mid[streak_rows].min() > 10 * mid[other_rows].mean()
    # pressure decreases monotonically along x in every row (max principle)
    p = solve_pressure(perm)
    P = p.reshape(grid.ny, grid.nx)
    assert np.all(np.diff(P, axis=1) < 0)


def test_streak_geometry():
    grid = build_grid(32, 32, 1.0, 1.0)
    perm = PermeabilityField.streaks(grid, contrast=50.0, centers=(0.5,), width_cells=3)
    assert perm.k.shape == (32, 32)
    streak = np.where(perm.k[0, :] == 50.0)[0]
    assert len(streak) == 3
    assert 15 in streak  # centered at y = 0.5
    assert np.all(perm.k[:, streak] == 50.0)  # streaks span the full x extent


def test_heterogeneous_divergence_random_field():
    rng = np.random.default_rng(8)
    grid = build_grid(16, 12, 1.0, 1.0)
    k = np.exp(rng.standard_normal((16, 12)))
    perm = PermeabilityField(grid, k, 1.0)
    p, vel = solve_darcy(perm)
    qmax = max(np.abs(vel.qx).max(), np.abs(vel.qy).max())
    assert np.abs(divergence(grid, vel)).max() <= 1e-10 * qmax
    inflow, outflow = flux_balance(grid, vel)
    assert inflow == pytest.approx(outflow, rel=1e-10)
    # no-flow top and bottom
    np.testing.assert_array_equal(vel.qy[:, 0], 0.0)
    np.testing.assert_array_equal(vel.qy[:, -1], 0.0)


def test_velocity_consistent_with_pressure():
    grid = build_grid(8, 8, 1.0, 1.0)
    perm = PermeabilityField.streaks(grid, contrast=10.0)
    p = solve_pressure(perm, p_left=2.0, p_right=0.5)
    vel = velocity_from_pressure(perm, p, p_left=2.0, p_right=0.5)
    qmax = max(np.abs(vel.qx).max(), np.abs(vel.qy).max())
    assert np.abs(divergence(grid, vel)).max() <= 1e-10 * qmax
    with pytest.raises(InvalidArgumentError):
        velocity_from_pressure(perm, p[:-1], p_left=2.0, p_right=0.5)


def test_permeability_validation():
    grid = build_grid(4, 4, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        PermeabilityField(grid, np.ones((3, 4)), 1.0)
    with pytest.raises(InvalidArgumentError):
        PermeabilityField(grid, -np.ones((4, 4)), 1.0)
    with pytest.raises(InvalidArgumentError):
        PermeabilityField(grid, np.ones((4, 4)), 0.0)
    with pytest.raises(InvalidArgumentError):
        PermeabilityField.streaks(grid, width_cells=0)
