"""Correctness checks made apart from setd.

Nothing here imports setd. Each check compares a study's output with a
computation of its own or with a property the method must have:

* :func:`mode_sum_law` propagates, for each cosine mode of the linear
  additive problem, the second moments of (scheme - exact OU) in closed
  form, so the mean square L2 error of every (scheme, dt) cell is known
  without running a scheme. :func:`law_band` turns the law's own
  Monte-Carlo variance at R realizations into an acceptance interval.
* :func:`dense_setdm1` recomputes one SETDM1 trajectory with
  dense propagators from ``scipy.linalg.expm`` (Pade scaling and squaring
  on the full matrix; phi1 from the augmented block matrix), on the same
  noise increments the study consumed.
* :func:`darcy_balance` checks that face velocities are discretely
  divergence-free and that inflow equals outflow.
* :func:`fitted_order` is a plain least-squares slope in log-log.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.stats

SCHEMES = ("setdm0", "setdm1", "semi_implicit")


def mode_sum_law(dts, T, nx=None, n=64, diffusion=1.0, reaction=0.5, b=0.2,
                 schemes=SCHEMES):
    """Mean square L2 error of each scheme against the exact OU solution.

    Mode (i, j), 0 <= i, j <= n, decays at mu = D pi^2 (i^2 + j^2) + r in
    the exact solution and carries noise intensity
    q = exp(-(pi b)^2 (i^2 + j^2) / (2 pi)) (= e^{-0.0628 (i^2+j^2)} for
    b = 0.2). The scheme advances the same mode with the generator
    eigenvalue lam: the spectral one, -D pi^2 (i^2 + j^2), by default, or,
    with ``nx``, that of the five-point Laplacian the lumped P1 generator
    reduces to on the uniform 1/nx grid, -D (4 nx^2)(sin^2(i pi/2nx) +
    sin^2(j pi/2nx)). The reaction -r u is the scheme's drift. Both runs
    start at 0 and share every Wiener increment; the exact step's
    stochastic convolution I is jointly Gaussian with the increment dbeta,
    so the covariance of (scheme, exact) per mode follows in closed form.

    Returns {scheme: (mean square error, variance of one realization's
    squared error)}, each an array over ``dts``. Modes are independent
    and Gaussian, so a realization's squared error is a weighted sum of
    chi-square(1) variables with variance 2 sum sigma_k^4.
    """
    i = np.arange(n + 1, dtype=np.float64)
    k2 = (i[:, None] ** 2 + i[None, :] ** 2).ravel()
    mu = diffusion * np.pi ** 2 * k2 + reaction
    if nx is None:
        lam = -diffusion * np.pi ** 2 * k2
    else:
        s = 4.0 * nx ** 2 * np.sin(i * np.pi / (2.0 * nx)) ** 2
        lam = -diffusion * (s[:, None] + s[None, :]).ravel()
    q = np.exp(-(np.pi * b) ** 2 * k2 / (2.0 * np.pi))
    out = {}
    for scheme in schemes:
        ms, var = [], []
        for dt in dts:
            dt = float(dt)
            steps = int(round(float(T) / dt))
            z = lam * dt
            e = np.exp(z)
            if scheme == "setdm0":
                a, g = e * (1.0 - reaction * dt), e
            elif scheme == "setdm1":
                phi1 = np.ones_like(z)
                nz = z != 0.0
                phi1[nz] = np.expm1(z[nz]) / z[nz]
                a, g = e - reaction * dt * phi1, e
            elif scheme == "semi_implicit":
                a, g = (1.0 - reaction * dt) / (1.0 - z), 1.0 / (1.0 - z)
            else:
                raise ValueError(f"unknown scheme {scheme!r}")
            ae = np.exp(-mu * dt)
            var_i = -np.expm1(-2.0 * mu * dt) / (2.0 * mu)
            cov_bi = -np.expm1(-mu * dt) / mu
            pss = np.zeros_like(mu)
            pee = np.zeros_like(mu)
            pse = np.zeros_like(mu)
            for _ in range(steps):
                pss, pee, pse = (a * a * pss + g * g * q * dt,
                                 ae * ae * pee + q * var_i,
                                 a * ae * pse + g * q * cov_bi)
            sigma2 = pss + pee - 2.0 * pse
            ms.append(sigma2.sum())
            var.append(2.0 * (sigma2 ** 2).sum())
        out[scheme] = (np.array(ms), np.array(var))
    return out


def law_band(mean_square, variance, realizations, p=1e-6):
    """(lo, hi) for the RMS error over R realizations, from the law alone.

    The mean of R squared errors is matched by its first two moments to a
    scaled chi-square with nu = 2 R (E S)^2 / Var S degrees of freedom; the
    band holds its central 1 - p mass. The tolerance therefore shrinks as
    1/sqrt(R) and is set by the law's own Monte-Carlo variance.
    """
    nu = 2.0 * realizations * mean_square ** 2 / variance
    lo = scipy.stats.chi2.ppf(p / 2.0, nu) / nu
    hi = scipy.stats.chi2.ppf(1.0 - p / 2.0, nu) / nu
    return np.sqrt(mean_square * lo), np.sqrt(mean_square * hi)


def fitted_order(dts, errors):
    """Least-squares slope of log(error) against log(dt)."""
    x = np.log(np.asarray(dts, dtype=np.float64))
    y = np.log(np.asarray(errors, dtype=np.float64))
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def in_band(value, band):
    return value is not None and np.isfinite(value) and band[0] <= value <= band[1]


def dense_propagators(A, dt):
    """(exp(dt A), phi1(dt A)) from one Pade expm of [[dt A, I], [0, 0]]."""
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = dt * A
    aug[:n, n:] = np.eye(n)
    Z = scipy.linalg.expm(aug)
    return Z[:n, :n].copy(), Z[:n, n:].copy()


def dense_setdm1(E, P, dt, x0, increments, mask, values, drift, dispersion):
    """One SETDM1 trajectory with dense propagators:
    x+ = E (x + B(x) dW) + dt P F(x), E = exp(dt A), P = phi1(dt A).

    Drift and noise are zeroed at the Dirichlet DOFs (``mask``), which are
    reset to ``values`` after each step, as the scheme defines.
    """
    x = np.where(mask, values, x0)
    for dW in increments:
        f = np.where(mask, 0.0, drift(x))
        g = np.where(mask, 0.0, dispersion(x) * dW)
        x = np.where(mask, values, E @ (x + g) + dt * (P @ f))
    return x


def field_mismatch(got, want):
    """max |got - want| relative to max(1, max |want|)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def darcy_balance(qx, qy, dx, dy):
    """(max cell divergence / max |q|, |inflow - outflow| / max flow).

    qx has shape (nx+1, ny) (x-normal faces), qy shape (nx, ny+1); the
    divergence is the net volumetric outflux of each cell.
    """
    qx = np.asarray(qx, dtype=np.float64)
    qy = np.asarray(qy, dtype=np.float64)
    div = (qx[1:, :] - qx[:-1, :]) * dy + (qy[:, 1:] - qy[:, :-1]) * dx
    qmax = max(float(np.abs(qx).max()), float(np.abs(qy).max()))
    inflow = float(qx[0, :].sum() * dy)
    outflow = float(qx[-1, :].sum() * dy)
    return (float(np.abs(div).max()) / qmax,
            abs(inflow - outflow) / max(abs(inflow), abs(outflow)))
