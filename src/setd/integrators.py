"""Time integrators for semilinear SPDEs: stochastic ETD and semi-implicit Euler.

All schemes advance the spatially discrete system

    dX = (A_h X + F(X)) dt + B(X) dW_h

with A_h the assembled (Dirichlet-frozen) operator, F and B pointwise
Nemytskii maps, and dW_h the nodal/cell increments of the truncated
Q-Wiener path. Exponential steps apply phi-function actions by a truncated
Taylor series (:mod:`setd.krylov`) and never form a matrix exponential: a
SETDM0 step is one phi0 action, a SETDM1 step one fused phi0/phi1 action.
The semi-implicit step factorizes (I - dt A_h) once per run.

Frozen Dirichlet DOFs have zero rows in A_h, so every propagator acts as
the identity there; drift and noise are masked at those DOFs and the
boundary values are re-imposed after each step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivergenceError, InvalidArgumentError, SolverError
# phi1_action is not called here; it stays importable from this module
# because studybench's tracer wraps setd.integrators.phi1_action by name.
from .krylov import KrylovConfig, fused_action, phi0_action, phi1_action  # noqa: F401
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
    """What to run: scheme, step size, step count, and numerical knobs."""

    scheme: Scheme
    dt: float
    steps: int
    krylov: Optional[KrylovConfig] = None

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise InvalidArgumentError(f"scheme must be a Scheme, got {self.scheme!r}")
        if not (float(self.dt) > 0.0) or not np.isfinite(self.dt):
            raise InvalidArgumentError(f"dt must be positive and finite, got {self.dt}")
        if int(self.steps) != self.steps or self.steps < 0:
            raise InvalidArgumentError(f"steps must be a nonnegative integer, got {self.steps}")
        if self.krylov is None:
            object.__setattr__(self, "krylov", KrylovConfig())


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
    name: str = "custom"
    linear_reference: Optional[tuple] = None   # (diffusion, reaction) when exact

    def __post_init__(self):
        self.X0 = np.asarray(self.X0, dtype=np.float64)
        if self.X0.shape != (self.discrete.ndof,):
            raise InvalidArgumentError(
                f"X0 has shape {self.X0.shape}, expected ({self.discrete.ndof},)"
            )
        if not np.all(np.isfinite(self.X0)):
            raise InvalidArgumentError("X0 contains non-finite values")

    @property
    def where(self):
        """Sampling sites of the noise increments for this discretization."""
        return "nodes" if self.discrete.method == "fem" else "cells"


@dataclass
class Trajectory:
    """Outcome of a run: final state and optional snapshots."""

    final: np.ndarray
    scheme: Scheme
    dt: float
    steps: int
    snapshots: list = field(default_factory=list)   # [(step, state copy)]


def _masked_drift(problem, x):
    """Reaction term with Dirichlet DOFs zeroed (boundary values are pinned)."""
    if problem.drift is None:
        f = np.zeros_like(x)
    else:
        f = np.asarray(problem.drift(x), dtype=np.float64)
        if f.shape != x.shape:
            raise InvalidArgumentError("drift must return a vector of the same shape")
    mask = problem.discrete.dirichlet_mask
    if mask is not None and mask.any():
        f = np.where(mask, 0.0, f)
    return f


def _masked_noise(problem, x, dW):
    """B(x) dW with Dirichlet DOFs zeroed."""
    if problem.dispersion is None:
        g = dW
    else:
        b = np.asarray(problem.dispersion(x), dtype=np.float64)
        if b.shape != x.shape:
            raise InvalidArgumentError("dispersion must return a vector of the same shape")
        g = b * dW
    mask = problem.discrete.dirichlet_mask
    if mask is not None and mask.any():
        g = np.where(mask, 0.0, g)
    return g


def setdm0_step(problem, config, state, dW):
    """Zeroth-order stochastic ETD step.

    X+ = phi0(dt A)(X + dt F(X) + B(X) dW): one semigroup action applied
    to the fully updated state.
    """
    y = state + config.dt * _masked_drift(problem, state) + _masked_noise(problem, state, dW)
    return phi0_action(problem.discrete.A, y, config.dt, config.krylov).vector


def setdm1_step(problem, config, state, dW):
    """First-order stochastic ETD step.

    X+ = phi0(dt A)(X + B(X) dW) + dt phi1(dt A) F(X): one fused action.
    """
    noise = _masked_noise(problem, state, dW)
    drift = _masked_drift(problem, state)
    return fused_action(problem.discrete.A, state + noise, drift, config.dt,
                        config.krylov).vector


def semi_implicit_step(problem, config, state, dW, solver=None):
    """Semi-implicit Euler-Maruyama step: (I - dt A) X+ = X + dt F(X) + B(X) dW.

    solver is an optional prefactorized solve callable for (I - dt A);
    run() builds one per call so repeated steps share the factorization.
    """
    rhs = state + config.dt * _masked_drift(problem, state) + _masked_noise(problem, state, dW)
    if solver is None:
        solver = make_implicit_solver(problem.discrete, config.dt)
    return solver(rhs)


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
        if denom > 0 and res > 1e-10 * denom:
            raise SolverError(f"implicit solve residual {res / denom:.3e} exceeds 1e-10")
        return x

    return solve


_STEP_FUNCS = {
    Scheme.SETDM0: setdm0_step,
    Scheme.SETDM1: setdm1_step,
}


def run(problem, config, path, coarsening=1, snapshot_every=None):
    """Integrate the problem along one noise path.

    The path is sampled at the stated coarsening (config.dt must equal
    coarsening * path.finest_dt), so runs at different step sizes on the
    same path consume refinements of the same Wiener increments. Raises
    DivergenceError (carrying the step index) if the state leaves
    [-1e12, 1e12] or goes non-finite.
    """
    if problem.noise != path.spec:
        raise InvalidArgumentError("problem and path disagree on the noise spec")
    coarsening = int(coarsening)
    if coarsening < 1:
        raise InvalidArgumentError(f"coarsening must be >= 1, got {coarsening}")
    if config.steps * coarsening > path.steps:
        raise InvalidArgumentError(
            f"{config.steps} steps at coarsening {coarsening} overrun the "
            f"path horizon of {path.steps} fine steps"
        )
    expected = coarsening * path.finest_dt
    if not np.isclose(config.dt, expected, rtol=1e-9, atol=0.0):
        raise InvalidArgumentError(
            f"dt={config.dt} is not coarsening {coarsening} x finest_dt {path.finest_dt}"
        )

    discrete = problem.discrete
    grid = discrete.grid
    where = problem.where
    x = apply_dirichlet(discrete, problem.X0)

    solver = None
    if config.scheme is Scheme.SEMI_IMPLICIT_EULER:
        step_func = semi_implicit_step
        solver = make_implicit_solver(discrete, config.dt)
    else:
        step_func = _STEP_FUNCS[config.scheme]

    snapshots = []
    if snapshot_every is not None and snapshot_every > 0:
        snapshots.append((0, x.copy()))
    for m in range(config.steps):
        dW = sample_increment(path, grid, m, coarsening, where=where)
        if solver is not None:
            x = step_func(problem, config, x, dW, solver)
        else:
            x = step_func(problem, config, x, dW)
        x = apply_dirichlet(discrete, x)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > _DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"solution blew up at step {m + 1} of {config.steps} "
                f"(scheme {config.scheme.value}, dt {config.dt:g})",
                step=m + 1,
            )
        if snapshot_every is not None and snapshot_every > 0 and (m + 1) % snapshot_every == 0:
            snapshots.append((m + 1, x.copy()))
    return Trajectory(final=x, scheme=config.scheme, dt=config.dt, steps=config.steps,
                      snapshots=snapshots)
