"""Reference solutions: exact spectral propagation and finest-grid runs.

For the linear additive problem dX = (D lap X - r0 X) dt + dW the cosine
modes decouple into scalar OU equations

    dc = -mu c dt + sqrt(q) dbeta,      mu = D lambda + r0,

whose transition is exact over any step:

    c(t+dt) = exp(-mu dt) c(t) + sqrt(q) I,
    I | dbeta ~ N(rho dbeta, v),
    rho = (1 - exp(-mu dt)) / (mu dt),
    v = (1 - exp(-2 mu dt)) / (2 mu) - (1 - exp(-mu dt))^2 / (mu^2 dt).

The conditional mean couples the reference to the same Wiener increments
the schemes consume (``brownian_increment_modes`` of the shared path, whose
mode increments a path bound to the schemes' site lattice conditions on
that lattice's class draws, so their cosine series is the schemes' field); the
conditional remainder is drawn from the path's auxiliary stream 1, so the
reference is exact in law and synchronized with every discretization of
the same path. Small mu*dt evaluates rho and v by series to dodge
cancellation; ``setd.noise.modes_at_sites`` evaluates c at the grid sites.

For nonlinear problems the reference is the finest-step SETDM1 run on the
shared path (see :func:`finest_reference`).
"""

from __future__ import annotations

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
    so below a = mu*dt < 0.1 it switches to the Taylor series through a^8;
    both branches are then accurate to ~1e-10 relative.
    """
    mu = np.asarray(mu, dtype=np.float64)
    dt = check_real(dt, "dt", lo=0, open_lo=True)
    a = mu * dt
    small = a < 0.1
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


def _step_coefficients(state, dt):
    """(rho, sqrt(v), exp(-mu dt)): what one exact step of size dt needs."""
    rho, v = conditional_convolution_params(state.mu, dt)
    return rho, np.sqrt(v), np.exp(-state.mu * dt)


def _advance(state, path, step_index, dt, coarsening, coefficients):
    rho, sqrt_v, decay = coefficients
    dbeta = path.brownian_increment_modes(step_index, coarsening)
    xi = path.normal_modes(step_index, stream=1)
    conv = rho * dbeta + sqrt_v * xi
    c_new = decay * state.c + state.sqrt_q * conv
    return replace(state, c=c_new, t=state.t + dt)


def exact_linear_step(state, path, step_index, dt, coarsening=1):
    """Advance the spectral state exactly over one step of size dt.

    dt must equal coarsening * path.finest_dt; the Wiener increments are
    the same draws any scheme consumes over that window, and the
    conditional remainder uses the auxiliary stream keyed by step_index.
    """
    _check_spec(state, path)
    coarsening = path.coarse_window(coarsening, 1, step_index, dt)
    dt = float(dt)
    return _advance(state, path, step_index, dt, coarsening, _step_coefficients(state, dt))


def evolve_exact(state, path, steps=None, coarsening=1):
    """Run ``steps`` exact steps of size coarsening * path.finest_dt.

    ``steps`` defaults to every whole coarse step the path holds. Equal bit
    for bit to a loop of :func:`exact_linear_step`, but the per-mode
    coefficients (rho, sqrt(v), exp(-mu dt)) are computed once per call,
    since dt never changes along the loop.
    """
    _check_spec(state, path)
    coarsening = path.coarse_window(coarsening, 0 if steps is None else steps)
    if steps is None:
        steps = path.steps // coarsening
    dt = coarsening * path.finest_dt
    coefficients = _step_coefficients(state, dt)
    for m in range(steps):
        state = _advance(state, path, m, dt, coarsening, coefficients)
    return state


def finest_reference(problem, path):
    """SETDM1 run over every fine step of the path; the surrogate truth for
    nonlinear problems, path-coupled with every coarser run."""
    from .integrators import Scheme, SchemeConfig, run

    cfg = SchemeConfig(Scheme.SETDM1, path.finest_dt, path.steps)
    return run(problem, cfg, path, coarsening=1).final
