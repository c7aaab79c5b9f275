"""Q-Wiener noise: covariance spectra, cosine eigenbasis, and sample paths.

The covariance operator is diagonal in the Neumann cosine basis on
[0, L1] x [0, L2]:

    e_0(x) = sqrt(1/L),    e_i(x) = sqrt(2/L) cos(i pi x / L),
    e_{i,j}(x, y) = e_i(x) e_j(y),

with per-mode intensities q_{i,j} given by either an exponentially decaying
spectrum or a power law (trace class for r > 2; the (0,0) constant mode
carries zero noise there), all given by :func:`spectrum_matrix`. A Wiener
increment over one step is

    dW = sqrt(dt) * sum_{i,j} sqrt(q_{i,j}) R_{i,j} e_{i,j},

with R standard normal (a cosine series: :func:`modes_at_sites` evaluates
one at the grid sites). Each fine step's block of draws is a pure function
of (seed, realization, step, stream) and the truncation through the Philox
counter-based generator in :mod:`setd.kernels`; a mode's draw is fixed by
its place in the (n1+1) x (n2+1) lattice, so a path drawn at another
truncation redraws every mode. That keying is what makes paths refinement
consistent: the increment over a coarse step is assembled as the
sequential sum of its fine-step increments, so coarse == sum(fine) holds
bit-for-bit at both mode level (:meth:`NoisePath.brownian_increment_modes`)
and nodal level (:func:`sample_increment`), and results cannot depend on
worker scheduling.

A study binds each path to the one site lattice its problem uses
(``sites=(grid, where)``). The first consumer of a fine step's stream-0
block, the exact reference or a field request, projects it onto that
lattice and stores the field; the block itself is dropped, so each block is
drawn once and the path holds at most ``steps`` fields. A path without
``sites``, as a single run uses, stores nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import InvalidArgumentError, check_int, check_real
from .grid import Grid, site_axes, site_index

_MAX_CACHED_FLOATS = 8_000_000  # per-path budget of stored fields: a path over it stores none


class SpectrumKind(Enum):
    EXPONENTIAL = "exponential"
    POWERLAW = "powerlaw"


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: spectrum family, its parameters, and mode truncation.

    n1/n2 are the highest retained mode indices (inclusive), so the mode
    lattice has (n1+1) x (n2+1) entries.
    """

    kind: SpectrumKind
    L1: float = 1.0
    L2: float = 1.0
    n1: int = 64
    n2: int = 64
    gamma: float = 1.0
    b1: float = 0.2
    b2: float = 0.2
    r: float = 2.01

    def __post_init__(self):
        # every parameter is finite; r > 2 makes the power law trace class
        lower = {"L1": 0, "L2": 0}
        if self.kind is SpectrumKind.EXPONENTIAL:
            lower.update(gamma=0, b1=0, b2=0)
        elif self.kind is SpectrumKind.POWERLAW:
            lower["r"] = 2
        for name in ("L1", "L2", "gamma", "b1", "b2", "r"):
            check_real(getattr(self, name), name, lo=lower.get(name), open_lo=True)
        for name in ("n1", "n2"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 0))

    @classmethod
    def exponential(cls, gamma=1.0, b1=0.2, b2=0.2, n1=64, n2=64, L1=1.0, L2=1.0):
        return cls(SpectrumKind.EXPONENTIAL, L1, L2, n1, n2, gamma=gamma, b1=b1, b2=b2)

    @classmethod
    def powerlaw(cls, r=2.01, n1=100, n2=100, L1=1.0, L2=1.0):
        return cls(SpectrumKind.POWERLAW, L1, L2, n1, n2, r=r)


def spectrum_matrix(spec):
    """All intensities q_{i,j} as an (n1+1, n2+1) array. The power law
    (i+j)^(-r) is undefined at (0,0): that entry is 0, the mode carries no noise."""
    i = np.arange(spec.n1 + 1)[:, None]
    j = np.arange(spec.n2 + 1)[None, :]
    if spec.kind is SpectrumKind.EXPONENTIAL:
        li = i * np.pi / spec.L1
        lj = j * np.pi / spec.L2
        return spec.gamma * np.exp(-((li * spec.b1) ** 2 + (lj * spec.b2) ** 2) / (2.0 * np.pi))
    s = i + j
    with np.errstate(divide="ignore"):
        q = np.where(s > 0, s.astype(np.float64), 1.0) ** (-spec.r)
    q[0, 0] = 0.0
    return q


def laplacian_eigenvalues(spec):
    """Neumann Laplacian eigenvalues lambda_{i,j} on the mode lattice."""
    li = (np.arange(spec.n1 + 1) * np.pi / spec.L1) ** 2
    lj = (np.arange(spec.n2 + 1) * np.pi / spec.L2) ** 2
    return li[:, None] + lj[None, :]


def _eigen_1d(coords, length, nmax):
    """Rows e_i(coords) for i = 0..nmax, shape (nmax+1, len(coords))."""
    i = np.arange(nmax + 1)[:, None]
    vals = np.sqrt(2.0 / length) * np.cos(i * np.pi * coords[None, :] / length)
    vals[0, :] = np.sqrt(1.0 / length)
    return vals


@lru_cache(maxsize=32)
def _basis_matrices(grid, n1, n2, where):
    x, y = site_axes(grid, where)
    return _eigen_1d(x, grid.L1, n1), _eigen_1d(y, grid.L2, n2)


def modes_at_sites(coeff, grid, where):
    """The cosine series with (n1+1, n2+1) coefficients ``coeff`` at grid
    nodes (or cell centers), x-fastest flat order. A unit coefficient array
    gives one eigenfunction e_{i,j} at the sites."""
    ex, ey = _basis_matrices(grid, coeff.shape[0] - 1, coeff.shape[1] - 1, where)
    return (ex.T @ coeff @ ey).T.ravel()


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------

@dataclass
class NoisePath:
    """One realization's Wiener path at finest resolution ``finest_dt``.

    All randomness is derived on demand from the Philox key, one block per
    (fine step, stream). Stream 0 carries the Wiener mode draws, stream 1
    the auxiliary draws used for exact conditional sampling in the spectral
    reference. A mode's draw depends on its lattice position, so the same
    key at another truncation gives a different path.

    ``sites=(grid, where)`` names the one site lattice whose fine-step
    fields the path stores, within the ``_MAX_CACHED_FLOATS`` budget; the
    first draw of a step's stream-0 block stores its field there. Fields on
    other lattices are projected fresh. Stored fields never leave the path,
    and equality means the same draws: the store and ``sites`` are not
    compared.
    """

    spec: NoiseSpec
    seed: int
    realization: int
    finest_dt: float
    steps: int
    sites: tuple | None = field(default=None, compare=False, repr=False)
    _key: tuple = field(init=False, repr=False)
    _fields: dict | None = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        # derive_key takes the seed and the realization mod 2^64, so values
        # outside [0, 2^64) would alias values inside it; a step index is
        # one 64-bit Philox counter word
        self.seed = check_int(self.seed, "seed", 0, 2 ** 64)
        self.realization = check_int(self.realization, "realization", 0, 2 ** 64)
        self.finest_dt = check_real(self.finest_dt, "finest_dt", lo=0, open_lo=True)
        self.steps = check_int(self.steps, "steps", 0, 2 ** 64 + 1)
        self._key = kernels.derive_key(self.seed, self.realization)
        if self.sites is not None:
            if not (type(self.sites) is tuple and len(self.sites) == 2
                    and isinstance(self.sites[0], Grid) and isinstance(self.sites[1], str)
                    and self.sites[1] in ("nodes", "cells")):
                raise InvalidArgumentError(
                    f"sites must be a (Grid, 'nodes' | 'cells') pair, got {self.sites!r}")
            if self.steps * site_index(*self.sites).size <= _MAX_CACHED_FLOATS:
                self._fields = {}

    # -- raw draws --------------------------------------------------------
    def normal_modes(self, step, stream=0):
        """Standard-normal block R_{i,j} for one fine step, shape (n1+1, n2+1)."""
        k0, k1 = self._key
        return kernels.normal_block(k0, k1, self.spec.n1 + 1, self.spec.n2 + 1,
                                    check_int(step, "step", 0, self.steps),
                                    check_int(stream, "stream", 0, 2 ** 64))

    # -- coarse steps -------------------------------------------------------
    def coarse_window(self, coarsening, steps, first=0, dt=None):
        """Check ``steps`` coarse steps of ``coarsening`` fine steps each,
        from coarse step ``first``, against the path; return the coarsening.

        The coarsening must be an integer >= 1, the fine steps
        [first * coarsening, (first + steps) * coarsening) must lie inside
        the horizon, and a given ``dt`` must equal coarsening * finest_dt
        to 1e-9 relative, so every scheme and the reference sum the same
        fine increments over a coarse step.
        """
        # plain in-range ints, the per-step case, skip the checker calls
        if not (type(coarsening) is type(steps) is type(first) is int
                and coarsening >= 1 and steps >= 0 and first >= 0):
            coarsening = check_int(coarsening, "coarsening", 1)
            steps = check_int(steps, "steps", 0)
            first = check_int(first, "coarse step index", 0)
        end = first + steps
        if end * coarsening > self.steps:
            raise InvalidArgumentError(
                f"coarse steps [{first}, {end}) x{coarsening} need fine steps "
                f"[{first * coarsening}, {end * coarsening}) but the path holds {self.steps}")
        if dt is not None and not np.isclose(
                check_real(dt, "dt"), coarsening * self.finest_dt, rtol=1e-9, atol=0.0):
            raise InvalidArgumentError(
                f"dt={dt} is not coarsening {coarsening} x finest_dt {self.finest_dt}")
        return coarsening

    # -- Brownian mode increments ------------------------------------------
    def brownian_increment_modes(self, step_index, coarsening=1):
        """Delta-beta_{i,j} over coarse step ``step_index`` (sum of fine draws).

        Accumulates the fine steps in increasing order, so the result for
        coarsening c equals the sequential sum of the c results at
        coarsening 1 bit-for-bit.
        """
        coarsening = self.coarse_window(coarsening, 1, step_index)
        lo = step_index * coarsening
        acc = self._fine_modes(lo)
        for s in range(lo + 1, lo + coarsening):
            acc += self._fine_modes(s)
        return acc

    def _fine_modes(self, step):
        """sqrt(finest_dt) R for one fine step, a fresh array. The first
        draw of a step stores its field on the bound lattice."""
        inc = math.sqrt(self.finest_dt) * self.normal_modes(step)
        if self._fields is not None and step not in self._fields:
            self._fields[step] = modes_at_sites(_sqrt_q(self.spec) * inc, *self.sites)
        return inc

    # -- assembled fields ---------------------------------------------------
    def _fine_field(self, grid, where, step):
        if self._fields is not None and (grid, where) == self.sites:
            if step not in self._fields:
                self._fine_modes(step)
            return self._fields[step]
        return modes_at_sites(_sqrt_q(self.spec) * self._fine_modes(step), grid, where)


@lru_cache(maxsize=32)
def _sqrt_q(spec):
    return np.sqrt(spectrum_matrix(spec))


def make_path(spec, seed, realization, finest_dt, steps, sites=None):
    """Create the (seed, realization)-keyed path over ``steps`` fine steps,
    storing its fields on the ``sites=(grid, where)`` lattice if given."""
    return NoisePath(spec, seed, realization, finest_dt, steps, sites)


def sample_increment(path, grid, step_index, coarsening=1, where="nodes"):
    """Assembled Wiener increment over one coarse step, flat x-fastest order.

    Defined as the sequential sum of the coarse step's fine-step assembled
    fields, so refinement consistency (coarse == sum of fine) is bit-exact
    at every node, matching the mode-level law.
    """
    coarsening = path.coarse_window(coarsening, 1, step_index)
    lo = step_index * coarsening
    acc = path._fine_field(grid, where, lo).copy()
    for s in range(lo + 1, lo + coarsening):
        acc += path._fine_field(grid, where, s)
    return acc
