"""Convergence-study orchestration: presets, error metrics, and reports.

A study runs every configured (scheme, dt) pair over a set of noise
realizations, measures the RMS discrete-L2 distance to a reference at the
final time, and fits the temporal order by least squares in log-log.
Per realization there is exactly one noise path at the finest step; every
scheme and the reference consume refinements of the same increments, so
the measured error is the pure strong (pathwise) error.

References: the linear additive preset has an exact per-mode solution
(see :mod:`setd.reference`); the nonlinear/multiplicative presets use the
finest-step SETDM1 run on the shared path as the surrogate truth.

Realizations run in ``threads`` forked worker processes, by default one per
usable CPU, and reduce in realization order: reports match for any count.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from . import darcy
from .errors import DegenerateFitError, InvalidArgumentError, SETDError, check_int, check_real
from .grid import BoundaryTag, build_grid
from .integrators import ProblemDef, Scheme, SchemeConfig, run
from .noise import NoiseSpec, make_path, modes_at_sites
from .operators import FaceVelocities, assemble_fem, assemble_fv, quadrature_weights
from .reference import evolve_exact, finest_reference, linear_state

# Each problem's [problem] keys and their defaults. The heterogeneous
# problem also takes the Darcy keys, forwarded to darcy only when given.
_ADVECTION_PARAMS = {"diffusion_x": 1e-2, "diffusion_y": 1e-3, "inflow": 1.0}
PROBLEM_PARAMS = {
    "linear_additive": {"diffusion": 1.0, "reaction": 0.5},
    "advection_homogeneous": {**_ADVECTION_PARAMS, "velocity_x": 1.0, "velocity_y": 0.0},
    "advection_heterogeneous": _ADVECTION_PARAMS,
}
DARCY_KEYS = ("contrast", "centers", "width_cells", "base", "mu", "p_left", "p_right")
PROBLEM_NAMES = tuple(PROBLEM_PARAMS)


@dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study needs, exactly reproducible from it.

    dt values are Fractions, so divisibility (dt | T, finest_dt | dt) is
    checked exactly, not through float rounding. ``threads`` worker
    processes run the realizations; by default, one per usable CPU.
    """

    problem: str
    schemes: tuple
    dt_list: tuple
    finest_dt: Fraction
    T: Fraction = Fraction(1)
    realizations: int = 10
    seed: int = 0
    nx: int = 32
    ny: int = 32
    L1: float = 1.0
    L2: float = 1.0
    noise: Optional[NoiseSpec] = None
    threads: int = field(default_factory=lambda: len(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else 1)
    c0: float = 0.0
    expected_order: float = 0.5
    problem_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise InvalidArgumentError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEM_NAMES}"
            )
        if not self.schemes:
            raise InvalidArgumentError("at least one scheme is required")
        for s in self.schemes:
            if not isinstance(s, Scheme):
                raise InvalidArgumentError(f"schemes must be Scheme members, got {s!r}")
        # the seed keys Philox mod 2^64, as in NoisePath
        for name, start, stop in (("realizations", 1, None), ("seed", 0, 2 ** 64),
                                  ("threads", 1, None), ("nx", None, None), ("ny", None, None)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, start, stop))
        for name in ("c0", "expected_order"):
            check_real(getattr(self, name), name)
        dts = tuple(Fraction(d) for d in self.dt_list)
        object.__setattr__(self, "dt_list", dts)
        object.__setattr__(self, "finest_dt", Fraction(self.finest_dt))
        object.__setattr__(self, "T", Fraction(self.T))
        if not dts:
            raise InvalidArgumentError("dt_list must be non-empty")
        if any(d <= 0 for d in dts) or self.finest_dt <= 0 or self.T <= 0:
            raise InvalidArgumentError("times must be positive")
        if list(dts) != sorted(dts, reverse=True) or len(set(dts)) != len(dts):
            raise InvalidArgumentError("dt_list must be strictly decreasing")
        for d in dts:
            if (self.T / d).denominator != 1:
                raise InvalidArgumentError(f"dt {d} does not divide T={self.T}")
            if (d / self.finest_dt).denominator != 1:
                raise InvalidArgumentError(
                    f"dt {d} is not an integer multiple of finest_dt {self.finest_dt}"
                )
        if (self.T / self.finest_dt).denominator != 1:
            raise InvalidArgumentError("finest_dt does not divide T")
        if self.noise is None:
            object.__setattr__(self, "noise", default_noise(self.problem, self.L1, self.L2))
        elif (self.noise.L1, self.noise.L2) != (self.L1, self.L2):
            raise InvalidArgumentError(
                f"noise is on the domain {self.noise.L1} x {self.noise.L2}, "
                f"the study on {self.L1} x {self.L2}")

    @property
    def fine_steps(self):
        return int(self.T / self.finest_dt)


def default_noise(problem, L1=1.0, L2=1.0):
    """Preset noise: smooth exponential spectrum for the linear problem,
    slowly decaying power law for the advection problems."""
    if problem == "linear_additive":
        return NoiseSpec.exponential(L1=L1, L2=L2)
    return NoiseSpec.powerlaw(L1=L1, L2=L2)


_DT_LIST = tuple(Fraction(1, n) for n in (10, 20, 40, 80, 160))


def linear_additive_study(nx=32, realizations=10, dt_list=_DT_LIST, finest_dt=Fraction(1, 160),
                          schemes=(Scheme.SETDM0, Scheme.SETDM1, Scheme.SEMI_IMPLICIT_EULER),
                          **kwargs):
    """Reaction-diffusion with additive smooth noise; exact spectral reference.

    The study's defaults are the arguments here; other keywords go to
    StudyConfig, with ny defaulting to nx.
    """
    return StudyConfig(problem="linear_additive", schemes=tuple(schemes),
                       dt_list=dt_list, finest_dt=finest_dt, nx=nx,
                       realizations=realizations, **{"ny": nx, **kwargs})


def advection_study(heterogeneous=False, nx=32, realizations=20, dt_list=_DT_LIST,
                    finest_dt=Fraction(1, 1600), schemes=(Scheme.SETDM0, Scheme.SETDM1),
                    **kwargs):
    """Advection-diffusion-reaction with multiplicative rough noise;
    finest-step SETDM1 reference. Other keywords as for linear_additive_study."""
    name = "advection_heterogeneous" if heterogeneous else "advection_homogeneous"
    return StudyConfig(problem=name, schemes=tuple(schemes), dt_list=dt_list,
                       finest_dt=finest_dt, nx=nx, realizations=realizations,
                       **{"ny": nx, **kwargs})


def build_problem(cfg):
    """Assemble the discrete problem for a study config (shared, read-only).

    Keys of ``cfg.problem_params`` that the problem does not give take
    their PROBLEM_PARAMS defaults; Darcy keys go to darcy only when given.
    """
    grid = build_grid(cfg.nx, cfg.ny, cfg.L1, cfg.L2)
    defaults = PROBLEM_PARAMS[cfg.problem]
    flow_keys = DARCY_KEYS if cfg.problem == "advection_heterogeneous" else ()
    unknown = set(cfg.problem_params) - set(defaults) - set(flow_keys)
    if unknown:
        raise InvalidArgumentError(f"unknown problem parameters: {sorted(unknown)}")
    pp = {key: check_real(cfg.problem_params.get(key, value), key)
          for key, value in defaults.items()}
    c0 = cfg.c0
    if cfg.problem == "linear_additive":
        diffusion, reaction = pp["diffusion"], pp["reaction"]
        discrete = assemble_fem(grid, diffusion, c0=c0)
        # -reaction keeps the -0.0 rate that c0 - reaction would make +0.0
        rate = -reaction if c0 == 0.0 else c0 - reaction
        return ProblemDef(discrete=discrete, noise=cfg.noise, X0=np.zeros(discrete.ndof),
                          drift=functools.partial(_linear_drift, rate=rate), dispersion=None,
                          linear_reference=(diffusion, reaction))

    if cfg.problem == "advection_homogeneous":
        faces = FaceVelocities.constant(grid, pp["velocity_x"], pp["velocity_y"])
    else:
        flow = {key: cfg.problem_params[key] for key in flow_keys if key in cfg.problem_params}
        _, faces = darcy.solve_streaks(grid, **flow)
    discrete = assemble_fv(grid, (pp["diffusion_x"], pp["diffusion_y"]), q_faces=faces,
                           dirichlet={BoundaryTag.LEFT: pp["inflow"]}, c0=c0)
    return ProblemDef(discrete=discrete, noise=cfg.noise, X0=np.zeros(discrete.ndof),
                      drift=functools.partial(_saturating_drift, c0=c0), dispersion=_identity)


# The problems' Nemytskii maps are module-level functions bound with
# functools.partial, so a ProblemDef pickles.
def _linear_drift(u, rate):
    return rate * u


def _saturating_drift(u, c0):
    """-u/(|u| + 1) + c0 u; at c0 = 0 the c0 u term is left out, since adding
    0.0 * u would turn a -0.0 entry into +0.0."""
    f = -u / (np.abs(u) + 1.0)
    return f if c0 == 0.0 else f + c0 * u


def _identity(u):
    return u


def rms_l2_error(samples, grid):
    """Root mean square of discrete L2 errors over realizations.

    samples is a sequence of (approx, reference) vector pairs; the vector
    length selects nodal (trapezoid) or cell-volume quadrature weights.
    """
    if len(samples) == 0:
        raise InvalidArgumentError("rms_l2_error needs at least one sample")
    a0, r0 = samples[0]
    w = quadrature_weights(grid, len(a0))
    acc = 0.0
    for approx, ref in samples:
        approx = np.asarray(approx, dtype=np.float64)
        ref = np.asarray(ref, dtype=np.float64)
        if approx.shape != ref.shape or approx.shape != w.shape:
            raise InvalidArgumentError("sample vectors must share the DOF dimension")
        diff = approx - ref
        acc += float(w @ (diff * diff))
    return float(np.sqrt(acc / len(samples)))


def fit_order(dts, errors):
    """Least-squares slope (and intercept) of log(error) against log(dt)."""
    dts = [float(d) for d in dts]
    errors = [float(e) for e in errors]
    if len(dts) != len(errors):
        raise InvalidArgumentError("dts and errors must have equal length")
    if len(dts) < 3:
        raise DegenerateFitError(f"order fit needs >= 3 levels, got {len(dts)}")
    if any(not np.isfinite(d) or d <= 0 for d in dts):
        raise DegenerateFitError("dt values must be positive and finite")
    if any(not np.isfinite(e) or e <= 0 for e in errors):
        raise DegenerateFitError("errors must be positive and finite to fit a power law")
    if len(set(dts)) < 2:
        raise DegenerateFitError("dt values are all identical")
    slope, intercept = np.polyfit(np.log(dts), np.log(errors), 1)
    return float(slope), float(intercept)


@dataclass
class ReportRow:
    scheme: str
    dt: Fraction
    rms_error: float
    realizations: int
    flagged_count: int


@dataclass
class ConvergenceReport:
    """Study outcome: one row per (scheme, dt) plus fitted orders."""

    rows: list
    fitted_orders: dict            # scheme name -> slope (None if not fittable)
    expected_order: float
    metadata: dict

    def to_csv(self, path):
        lines = ["scheme,dt,rms_error,realizations,flagged_count"]
        for row in self.rows:
            lines.append(
                f"{row.scheme},{row.dt},{row.rms_error!r},{row.realizations},{row.flagged_count}"
            )
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path):
        payload = {
            "rows": [
                {
                    "scheme": row.scheme,
                    "dt": str(row.dt),
                    "rms_error": row.rms_error if math.isfinite(row.rms_error) else None,
                    "realizations": row.realizations,
                    "flagged_count": row.flagged_count,
                }
                for row in self.rows
            ],
            "fitted_orders": self.fitted_orders,
            "expected_order": self.expected_order,
            "metadata": self.metadata,
        }
        # a cell flagged in every realization writes null above; any other
        # non-finite value raises here, before the file is opened
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")


def _realization_worker(cfg, problem, r):
    """All runs for one realization: one path bound to the problem's site
    lattice, which stores its fields and whose class draws the exact
    reference reads, then the reference and every cell.

    Returns (reference_or_None, {cell: final_field_or_None}). Any SETDError
    (divergence, a phi action over its step cap, a failed solve) flags its
    cell; a reference failure flags every cell of this realization.
    """
    sites = (problem.discrete.grid, problem.discrete.where)
    path = make_path(cfg.noise, cfg.seed, r, float(cfg.finest_dt), cfg.fine_steps, sites=sites)
    try:
        if problem.linear_reference is not None:
            diffusion, reaction = problem.linear_reference
            state = evolve_exact(linear_state(cfg.noise, diffusion, reaction), path)
            ref = modes_at_sites(state.c, *sites)
        else:
            ref = finest_reference(problem, path)
    except SETDError:
        return None, {}
    fields = {}
    for scheme in cfg.schemes:
        for dt in cfg.dt_list:
            coarsening = int(dt / cfg.finest_dt)
            steps = int(cfg.T / dt)
            run_cfg = SchemeConfig(scheme, float(dt), steps)
            try:
                fields[(scheme, dt)] = run(problem, run_cfg, path, coarsening).final
            except SETDError:
                fields[(scheme, dt)] = None
    return ref, fields


def run_study(cfg):
    """Execute a convergence study and assemble its report.

    Realizations run in turn, or in min(threads, realizations) forked
    workers, and reduce in realization order, so the report does not depend
    on the worker count. A worker that dies raises SETDError.
    """
    problem = build_problem(cfg)
    grid = problem.discrete.grid
    workers = min(cfg.threads, cfg.realizations)
    if workers == 1:
        results = [_realization_worker(cfg, problem, r) for r in range(cfg.realizations)]
    else:
        # fork, since spawn and forkserver re-run an unguarded __main__ in
        # each worker; fork starts all workers at once, hence the cap
        results = []
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            try:
                for result in pool.map(functools.partial(_realization_worker, cfg, problem),
                                       range(cfg.realizations)):
                    results.append(result)
            except BrokenProcessPool as exc:
                raise SETDError(f"a worker died: realization {len(results)} was lost") from exc

    rows = []
    per_scheme = {scheme: ([], []) for scheme in cfg.schemes}
    for scheme in cfg.schemes:
        for dt in cfg.dt_list:
            samples = []
            flagged = 0
            for ref, fields in results:
                final = None if ref is None else fields.get((scheme, dt))
                if ref is None or final is None:
                    flagged += 1
                else:
                    samples.append((final, ref))
            rms = rms_l2_error(samples, grid) if samples else float("nan")
            rows.append(ReportRow(scheme.value, dt, rms, cfg.realizations, flagged))
            if samples and np.isfinite(rms) and rms > 0:
                per_scheme[scheme][0].append(dt)
                per_scheme[scheme][1].append(rms)

    fitted = {}
    for scheme, (dts, errs) in per_scheme.items():
        try:
            fitted[scheme.value], _ = fit_order(dts, errs)
        except DegenerateFitError:
            fitted[scheme.value] = None

    noise = cfg.noise
    metadata = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "realizations": cfg.realizations,
        "T": str(cfg.T),
        "dt_list": [str(d) for d in cfg.dt_list],
        "finest_dt": str(cfg.finest_dt),
        "grid": {"nx": cfg.nx, "ny": cfg.ny, "L1": cfg.L1, "L2": cfg.L2},
        "noise": {
            "kind": noise.kind.value,
            "n1": noise.n1,
            "n2": noise.n2,
            "gamma": noise.gamma,
            "b1": noise.b1,
            "b2": noise.b2,
            "r": noise.r,
        },
        "c0": cfg.c0,
        "schemes": [s.value for s in cfg.schemes],
        "problem_params": dict(cfg.problem_params),
    }
    return ConvergenceReport(rows=rows, fitted_orders=fitted,
                             expected_order=cfg.expected_order, metadata=metadata)
