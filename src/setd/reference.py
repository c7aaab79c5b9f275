"""Reference solutions: exact spectral propagation and finest-grid runs.

For the linear additive problem dX = (D lap X - r0 X) dt + dW the cosine
modes decouple into scalar OU equations

    dc = -mu c dt + sqrt(q) dbeta,      mu = D lambda + r0,

whose transition is exact over any step (Lord, Powell & Shardlow, *An
Introduction to Computational Stochastic PDEs*, CUP 2014, ch. 10):

    c(t+dt) = exp(-mu dt) c(t) + sqrt(q) I,
    I | dbeta ~ N(rho dbeta, v),
    rho = (1 - exp(-mu dt)) / (mu dt),
    v = (1 - exp(-2 mu dt)) / (2 mu) - (1 - exp(-mu dt))^2 / (mu^2 dt).

The reference runs it over every fine step and reads only the class draws
Z the schemes see. The path supplies (classes, W, sigma): its lattice's
alias classes when bound by ``sites``, else every mode its own class with
W = sigma = sqrt(q) and Z the stream-0 block. Given Z, mode k of class j
has a normalized increment of mean r_k Z_j, r_k = W_k / sigma_j (0 where
sigma_j = 0), so the mean runs c <- exp(-mu dt) c + sqrt(q) rho sqrt(dt)
r Z[class]. The rest is Gaussian and independent across classes, so it
is drawn once at the end from one stream-1 block through a batched
``eigh``: within class j, with d = exp(-mu dt), its covariance over N
steps is the geometric sum

    sum_{m<N} (d_k d_l)^m sqrt(q_k q_l)
        [rho_k rho_l dt (delta_kl - W_k W_l / sigma_j^2) + delta_kl v_k].

Small |mu*dt| evaluates rho and v by series to dodge cancellation;
``setd.noise.modes_at_sites`` evaluates c at the grid sites.

For nonlinear problems the reference is the finest-step SETDM1 run on the
shared path (see :func:`finest_reference`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, check_real
from .noise import laplacian_eigenvalues, spectrum_matrix


@dataclass
class SpectralState:
    """Cosine-basis coefficients plus per-mode rates of the linear problem."""

    spec: object            # NoiseSpec (mode lattice and domain lengths)
    c: np.ndarray           # (n1+1, n2+1) coefficients
    mu: np.ndarray          # per-mode decay rates
    sqrt_q: np.ndarray      # per-mode noise amplitudes
    t: float = 0.0


def linear_state(spec, diffusion=1.0, reaction=0.5, coefficients=None):
    """Initial spectral state for dX = (D lap X - reaction X) dt + dW."""
    mu = diffusion * laplacian_eigenvalues(spec) + reaction
    c = np.zeros((spec.n1 + 1, spec.n2 + 1)) if coefficients is None else np.array(
        coefficients, dtype=np.float64
    )
    if c.shape != mu.shape:
        raise InvalidArgumentError(f"coefficient shape {c.shape} does not match mode lattice {mu.shape}")
    return SpectralState(spec, c, mu, np.sqrt(spectrum_matrix(spec)))


def conditional_convolution_params(mu, dt):
    """(rho, v): conditional law of the OU stochastic convolution given dbeta.

    I = int exp(-mu (t+dt-s)) dbeta(s) over one step satisfies
    I | dbeta ~ N(rho * dbeta, v). Vectorized over mu. The closed form for
    v subtracts two near-equal O(1) terms and loses ~a^-2 relative digits,
    so below |a| = |mu*dt| < 0.1 it switches to the Taylor series through
    a^8; both branches are then accurate to ~1e-10 relative. A negative mu
    (a growing mode, e.g. the (0,0) mode under a negative reaction) takes
    the closed form once |a| >= 0.1: there the truncated series is off by
    5e-6 relative at a = -0.5 and by 62 % at a = -5.
    """
    mu = np.asarray(mu, dtype=np.float64)
    dt = check_real(dt, "dt", lo=0, open_lo=True)
    a = mu * dt
    small = np.abs(a) < 0.1
    a_safe = np.where(a == 0.0, 1.0, a)
    rho = np.where(a == 0.0, 1.0, -np.expm1(-a_safe) / a_safe)
    em1 = -np.expm1(-a_safe)   # 1 - exp(-a)
    em2 = -np.expm1(-2.0 * a_safe)
    v_closed = dt * (em2 / (2.0 * a_safe) - (em1 / a_safe) ** 2)
    # v/dt = a^2/12 (1 - a + 17a^2/30 - 7a^3/30 + 43a^4/560
    #                  - 107a^5/5040 + 769a^6/151200) + O(a^9)
    poly = 1.0 + a * (-1.0 + a * (17.0 / 30.0 + a * (-7.0 / 30.0 + a * (
        43.0 / 560.0 + a * (-107.0 / 5040.0 + a * (769.0 / 151200.0))))))
    v_series = dt * (a * a / 12.0) * poly
    v = np.where(small, v_series, v_closed)
    return rho, np.maximum(v, 0.0)


def _check_spec(state, path):
    if state.spec is not path.spec and state.spec != path.spec:
        raise InvalidArgumentError("state and path disagree on the noise spec")


def _evolve(state, path, first, steps):
    """``steps`` exact fine steps from fine step ``first``: the mean
    recursion on the class draws, then the remainder drawn once."""
    if steps == 0:
        return state
    dt, (classes, weights, sigma) = path.finest_dt, path._class_map()
    s = sigma.ravel()[classes]
    ratio = np.divide(weights.ravel(), s, out=np.zeros(s.size), where=s > 0)   # W/sigma
    c, mu, amp = state.c.ravel(), state.mu.ravel(), state.sqrt_q.ravel()
    rho, v = conditional_convolution_params(mu, dt)
    decay, gain = np.exp(-mu * dt), amp * rho * math.sqrt(dt) * ratio
    for step in range(first, first + steps):
        c = decay * c + gain * path._class_draw(step).ravel()[classes]
    # members[j] lists class j's modes, padded with a zero mode at index M
    M, order = classes.size, np.argsort(classes, kind="stable")
    counts = np.bincount(classes, minlength=sigma.size)
    members = np.full((sigma.size, counts.max()), M)
    members[classes[order], np.arange(M) - np.repeat(np.cumsum(counts) - counts, counts)] = order
    pad = lambda x: np.append(x, 0.0)[members]
    a, r, m = pad(amp * rho), pad(ratio), pad(mu)
    x = (m[:, :, None] + m[:, None, :]) * dt
    geometric = np.divide(np.expm1(-steps * x), np.expm1(-x), out=np.full(x.shape, float(steps)),
                          where=x != 0.0)
    eye = np.eye(members.shape[1])
    cov = geometric * (dt * a[:, :, None] * a[:, None, :] * (eye - r[:, :, None] * r[:, None, :])
                       + eye * pad(amp * amp * v)[:, :, None])
    lam, vec = np.linalg.eigh(cov)
    xi = path._block(first, members.shape, 1)
    remainder = np.zeros(M + 1)
    remainder[members] = np.einsum("cij,cj->ci", vec, np.sqrt(np.maximum(lam, 0.0)) * xi)
    return replace(state, c=(c + remainder[:M]).reshape(state.c.shape), t=state.t + steps * dt)


def exact_linear_step(state, path, step_index, dt):
    """Advance the spectral state exactly over fine step ``step_index``;
    dt must equal path.finest_dt."""
    _check_spec(state, path)
    path.coarse_window(1, 1, step_index, dt)
    return _evolve(state, path, step_index, 1)


def evolve_exact(state, path, steps=None):
    """Advance the spectral state exactly over the first ``steps`` fine
    steps of the path (every step by default)."""
    _check_spec(state, path)
    steps = path.steps if steps is None else steps
    path.coarse_window(1, steps)
    return _evolve(state, path, 0, steps)


def finest_reference(problem, path):
    """SETDM1 run over every fine step of the path; the surrogate truth for
    nonlinear problems, path-coupled with every coarser run."""
    from .integrators import Scheme, SchemeConfig, run

    cfg = SchemeConfig(Scheme.SETDM1, path.finest_dt, path.steps)
    return run(problem, cfg, path).final
