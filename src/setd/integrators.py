"""Time integrators for semilinear SPDEs: stochastic ETD and semi-implicit Euler.

All schemes advance the spatially discrete system

    dX = (A_h X + F(X)) dt + B(X) dW_h

with A_h the assembled (Dirichlet-frozen) operator, F and B pointwise
Nemytskii maps, and dW_h the nodal/cell increments of the truncated
Q-Wiener path. Exponential steps apply phi-function actions by
uniformization (:mod:`setd.krylov`) and never form a matrix exponential: a
SETDM0 step is one phi0 action, a SETDM1 step one fused phi0/phi1 action.
The semi-implicit step factorizes (I - dt A_h) once per run.

Frozen Dirichlet DOFs have zero rows in A_h, so every propagator acts as
the identity there. Each step takes F(X) and B(X) dW from one helper,
which zeroes both at those DOFs in arrays it made itself; ``run`` applies
the boundary values to X0 once (``apply_dirichlet``) and writes them in
place into the vector each step returns. A state whose largest magnitude
is not <= 1e12 (NaN and Inf included) stops the run with DivergenceError.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivergenceError, InvalidArgumentError, SolverError, check_int, check_real
# phi1_action is not called here; it stays importable from this module
# because studybench's tracer wraps setd.integrators.phi1_action by name.
from .krylov import fused_action, phi0_action, phi1_action  # noqa: F401
from .noise import NoiseSpec, sample_increment
from .operators import DiscreteProblem, apply_dirichlet

_DIVERGENCE_LIMIT = 1e12


class Scheme(enum.Enum):
    """Time-stepping schemes."""

    SETDM0 = "setdm0"
    SETDM1 = "setdm1"
    SEMI_IMPLICIT_EULER = "semi_implicit"


@dataclass(frozen=True)
class SchemeConfig:
    """What to run: scheme, step size and step count."""

    scheme: Scheme
    dt: float
    steps: int

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise InvalidArgumentError(f"scheme must be a Scheme, got {self.scheme!r}")
        object.__setattr__(self, "dt", check_real(self.dt, "dt", lo=0, open_lo=True))
        object.__setattr__(self, "steps", check_int(self.steps, "steps", 0))


@dataclass
class ProblemDef:
    """A discrete problem bundled with its reaction, dispersion, and noise.

    drift and dispersion are pointwise (Nemytskii) callables mapping a DOF
    vector to a DOF vector; drift None means zero reaction, dispersion
    None means additive noise (B = identity on the increments).
    """

    discrete: DiscreteProblem
    noise: NoiseSpec
    X0: np.ndarray
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dispersion: Optional[Callable[[np.ndarray], np.ndarray]] = None
    linear_reference: Optional[tuple] = None   # (diffusion, reaction) when exact

    def __post_init__(self):
        self.X0 = np.asarray(self.X0, dtype=np.float64)
        if self.X0.shape != (self.discrete.ndof,):
            raise InvalidArgumentError(
                f"X0 has shape {self.X0.shape}, expected ({self.discrete.ndof},)"
            )
        if not np.all(np.isfinite(self.X0)):
            raise InvalidArgumentError("X0 contains non-finite values")


@dataclass
class Trajectory:
    """Outcome of a run: final state and optional snapshots."""

    final: np.ndarray
    snapshots: list = field(default_factory=list)   # [(step, state copy)]


def _drift_and_noise(problem, x, dW):
    """F(x) and B(x) dW as new arrays (a drift's output is copied; additive
    noise is B = 1), zeroed in place on the Dirichlet DOFs."""
    drift, dispersion = problem.drift, problem.dispersion
    f = np.zeros_like(x) if drift is None else np.array(drift(x), dtype=np.float64)
    b = np.ones_like(x) if dispersion is None else np.asarray(dispersion(x), dtype=np.float64)
    if f.shape != x.shape or b.shape != x.shape:
        raise InvalidArgumentError("drift and dispersion must return vectors of the state's shape")
    g = b * dW
    mask = problem.discrete.dirichlet_mask
    f[mask] = 0.0
    g[mask] = 0.0
    return f, g


def setdm0_step(problem, config, state, dW):
    """Zeroth-order stochastic ETD step.

    X+ = phi0(dt A)(X + dt F(X) + B(X) dW): one semigroup action applied
    to the fully updated state.
    """
    f, g = _drift_and_noise(problem, state, dW)
    return phi0_action(problem.discrete.A, state + config.dt * f + g, config.dt).vector


def setdm1_step(problem, config, state, dW):
    """First-order stochastic ETD step.

    X+ = phi0(dt A)(X + B(X) dW) + dt phi1(dt A) F(X): one fused action.
    """
    f, g = _drift_and_noise(problem, state, dW)
    return fused_action(problem.discrete.A, state + g, f, config.dt).vector


def semi_implicit_step(problem, config, state, dW, solver=None):
    """Semi-implicit Euler-Maruyama step: (I - dt A) X+ = X + dt F(X) + B(X) dW.

    solver is an optional prefactorized solve callable for (I - dt A);
    run() builds one per call so repeated steps share the factorization.
    """
    f, g = _drift_and_noise(problem, state, dW)
    if solver is None:
        solver = make_implicit_solver(problem.discrete, config.dt)
    return solver(state + config.dt * f + g)


def make_implicit_solver(discrete, dt):
    """Factorize (I - dt A_h) once and return a solve callable.

    Each solve verifies its residual to 1e-10 relative (a direct-solver
    sanity bound, not a tolerance knob).
    """
    n = discrete.ndof
    M = (sp.identity(n, format="csr") - dt * discrete.A.to_scipy()).tocsc()
    lu = spla.splu(M)

    def solve(rhs):
        x = lu.solve(rhs)
        denom = np.linalg.norm(rhs)
        res = np.linalg.norm(M @ x - rhs)
        if not res <= 1e-10 * denom:  # a NaN residual fails too
            raise SolverError(f"implicit solve residual {res / denom:.3e} exceeds 1e-10")
        return x

    return solve


def run(problem, config, path, coarsening=1, snapshot_every=None):
    """Integrate the problem along one noise path.

    The path is sampled at the stated coarsening (config.dt must equal
    coarsening * path.finest_dt), so runs at different step sizes on the
    same path consume refinements of the same Wiener increments. Snapshots:
    the initial state and every snapshot_every-th step. Raises DivergenceError
    (carrying the step index) if the state leaves [-1e12, 1e12] or goes non-finite.
    """
    if problem.noise != path.spec:
        raise InvalidArgumentError("problem and path disagree on the noise spec")
    if snapshot_every is not None:
        snapshot_every = check_int(snapshot_every, "snapshot_every", 1)
    coarsening = path.coarse_window(coarsening, config.steps, dt=config.dt)

    discrete = problem.discrete
    grid = discrete.grid
    x = apply_dirichlet(discrete, problem.X0)
    mask = discrete.dirichlet_mask
    pinned = discrete.dirichlet_values[mask]

    if config.scheme is Scheme.SEMI_IMPLICIT_EULER:
        step_func = functools.partial(
            semi_implicit_step, solver=make_implicit_solver(discrete, config.dt))
    else:
        step_func = setdm0_step if config.scheme is Scheme.SETDM0 else setdm1_step

    snapshots = [(0, x.copy())] if snapshot_every else []
    for m in range(config.steps):
        dW = sample_increment(path, grid, m, coarsening, where=discrete.where)
        x = step_func(problem, config, x, dW)
        x[mask] = pinned
        if not np.abs(x).max() <= _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"solution blew up at step {m + 1} of {config.steps} "
                f"(scheme {config.scheme.value}, dt {config.dt:g})",
                step=m + 1,
            )
        if snapshot_every and (m + 1) % snapshot_every == 0:
            snapshots.append((m + 1, x.copy()))
    return Trajectory(final=x, snapshots=snapshots)
