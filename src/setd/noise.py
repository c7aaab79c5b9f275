"""Q-Wiener noise: covariance spectra, cosine eigenbasis, and sample paths.

The covariance operator is diagonal in the Neumann cosine basis on
[0, L1] x [0, L2]:

    e_0(x) = sqrt(1/L),    e_i(x) = sqrt(2/L) cos(i pi x / L),
    e_{i,j}(x, y) = e_i(x) e_j(y),

with per-mode intensities q_{i,j} given by either an exponentially decaying
spectrum or a power law (trace class for r > 2; the (0,0) constant mode
carries zero noise there). A Wiener increment over one step is

    dW = sqrt(dt) * sum_{i,j} sqrt(q_{i,j}) R_{i,j} e_{i,j},

with R standard normal. Each fine step's block of draws is a pure function
of (seed, realization, step, stream) and the truncation through the Philox
counter-based generator in :mod:`setd.kernels`; a mode's draw is fixed by
its place in the (n1+1) x (n2+1) lattice, so a path drawn at another
truncation redraws every mode. That keying is what makes paths refinement
consistent: the increment over a coarse step is assembled as the
sequential sum of its fine-step increments, so coarse == sum(fine) holds
bit-for-bit at both mode and nodal level, and results cannot depend on
worker scheduling.

In a study a path draws each Philox block once per (fine step, stream).
The exact spectral reference reads the stream-0 blocks through
``brownian_increment_modes`` before the schemes assemble their fields, so
the path keeps each block it draws there until ``_fine_field`` takes it for
that step's field, within the same ``_MAX_CACHED_FLOATS`` budget as the
field cache. Kept blocks never leave the path: callers get fresh arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import InvalidArgumentError

_MAX_CACHED_FLOATS = 8_000_000  # per-path budget of each (grid, site) field cache and of kept blocks


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
        if self.L1 <= 0 or self.L2 <= 0:
            raise InvalidArgumentError("domain lengths must be positive")
        for name in ("n1", "n2"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n1 < 0 or self.n2 < 0:
            raise InvalidArgumentError("mode truncation must be >= 0")
        if self.kind is SpectrumKind.EXPONENTIAL:
            if self.gamma <= 0:
                raise InvalidArgumentError("exponential spectrum requires gamma > 0")
            if self.b1 <= 0 or self.b2 <= 0:
                raise InvalidArgumentError("exponential spectrum requires b1, b2 > 0")
        elif self.kind is SpectrumKind.POWERLAW:
            if not self.r > 2:
                raise InvalidArgumentError(
                    f"power-law exponent must exceed 2 for a trace-class covariance, got r={self.r}"
                )

    @classmethod
    def exponential(cls, gamma=1.0, b1=0.2, b2=0.2, n1=64, n2=64, L1=1.0, L2=1.0):
        return cls(SpectrumKind.EXPONENTIAL, L1, L2, n1, n2, gamma=gamma, b1=b1, b2=b2)

    @classmethod
    def powerlaw(cls, r=2.01, n1=100, n2=100, L1=1.0, L2=1.0):
        return cls(SpectrumKind.POWERLAW, L1, L2, n1, n2, r=r)


def spectrum(spec, i, j):
    """Mode intensity q_{i,j}.

    For the power law, q = (i+j)^(-r) is undefined at (0,0); asking for it
    is an error (sampling internally assigns that mode zero noise).
    """
    i = int(i)
    j = int(j)
    if i < 0 or j < 0:
        raise InvalidArgumentError("mode indices must be >= 0")
    if spec.kind is SpectrumKind.EXPONENTIAL:
        li = i * math.pi / spec.L1
        lj = j * math.pi / spec.L2
        return spec.gamma * math.exp(-((li * spec.b1) ** 2 + (lj * spec.b2) ** 2) / (2.0 * math.pi))
    if i + j == 0:
        raise InvalidArgumentError("power-law spectrum is undefined at mode (0, 0)")
    return float(i + j) ** (-spec.r)


def spectrum_matrix(spec):
    """All intensities as an (n1+1, n2+1) array; power-law (0,0) entry is 0."""
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


def trace(spec):
    """Total retained noise intensity sum(q) over the truncated lattice."""
    return float(spectrum_matrix(spec).sum())


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
    if where == "nodes":
        x = np.arange(grid.nx + 1) * grid.dx
        y = np.arange(grid.ny + 1) * grid.dy
    elif where == "cells":
        x = (np.arange(grid.nx) + 0.5) * grid.dx
        y = (np.arange(grid.ny) + 0.5) * grid.dy
    else:
        raise InvalidArgumentError(f"unknown sample site family {where!r}")
    return _eigen_1d(x, grid.L1, n1), _eigen_1d(y, grid.L2, n2)


def eigenfunction_nodal(grid, i, j, where="nodes"):
    """Samples of e_{i,j} at grid nodes (or cell centers), x-fastest flat order."""
    i = int(i)
    j = int(j)
    if i < 0 or j < 0:
        raise InvalidArgumentError("mode indices must be >= 0")
    ex, ey = _basis_matrices(grid, i, j, where)
    return np.outer(ey[j], ex[i]).ravel()


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------

@dataclass
class NoisePath:
    """One realization's Wiener path at finest resolution ``finest_dt``.

    All randomness is derived on demand from the Philox key, one block per
    (fine step, stream); the object holds no state beyond an optional cache
    of assembled fine-step fields and the stream-0 blocks kept between the
    reference and the schemes. Stream 0 carries the Wiener mode draws,
    stream 1 the auxiliary draws used for exact conditional sampling in the
    spectral reference. A mode's draw depends on its lattice position, so
    the same key at another truncation gives a different path.
    """

    spec: NoiseSpec
    seed: int
    realization: int
    finest_dt: float
    steps: int
    _key: tuple = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)
    _kept: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        # derive_key takes the seed mod 2^64, so other seeds would alias these
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidArgumentError(f"seed must be in [0, 2**64), got {self.seed}")
        self._key = kernels.derive_key(self.seed, self.realization)

    # -- raw draws --------------------------------------------------------
    def normal_modes(self, step, stream=0):
        """Standard-normal block R_{i,j} for one fine step, shape (n1+1, n2+1)."""
        if step < 0 or step >= self.steps:
            raise InvalidArgumentError(f"step {step} outside path horizon [0, {self.steps})")
        k0, k1 = self._key
        return kernels.normal_block(k0, k1, self.spec.n1 + 1, self.spec.n2 + 1, step, stream)

    def aux_normals(self, step):
        """Auxiliary normals (dedicated sub-stream) for conditional sampling."""
        return self.normal_modes(step, stream=1)

    # -- Brownian mode increments ------------------------------------------
    def _check_window(self, step_index, coarsening):
        coarsening = int(coarsening)
        if coarsening < 1:
            raise InvalidArgumentError("coarsening factor must be >= 1")
        lo = step_index * coarsening
        hi = lo + coarsening
        if step_index < 0 or hi > self.steps:
            raise InvalidArgumentError(
                f"coarse step {step_index} x{coarsening} needs fine steps [{lo}, {hi}) "
                f"but the path holds {self.steps}"
            )
        return lo, hi

    def brownian_increment_modes(self, step_index, coarsening=1):
        """Delta-beta_{i,j} over coarse step ``step_index`` (sum of fine draws).

        Accumulates the fine steps in increasing order, so the result for
        coarsening c equals the sequential sum of the c results at
        coarsening 1 bit-for-bit.
        """
        lo, hi = self._check_window(step_index, coarsening)
        sdt = math.sqrt(self.finest_dt)
        acc = sdt * self._keep_block(lo)
        for s in range(lo + 1, hi):
            acc += sdt * self._keep_block(s)
        return acc

    def _keep_block(self, step):
        """Stream-0 block of one fine step, kept until its field is assembled.

        Blocks are kept only if the blocks of all the path's steps fit the
        ``_MAX_CACHED_FLOATS`` budget, and never for a step whose field some
        field cache already holds, since nothing would take them. Callers
        never hand the kept array out.
        """
        blk = self._kept.get(step)
        if blk is None:
            blk = self.normal_modes(step)
            if (self.steps * blk.size <= _MAX_CACHED_FLOATS
                    and not any(entry and step in entry for entry in self._cache.values())):
                self._kept[step] = blk
        return blk

    def brownian_increment(self, i, j, step_index, coarsening=1):
        """Scalar Delta-beta for one mode (probe API; same accumulation order).

        Reads entry (i, j) of each fine step's block and accumulates it in
        the order of ``brownian_increment_modes``, so it equals that entry
        of the block increment exactly.
        """
        i = int(i)
        j = int(j)
        if not (0 <= i <= self.spec.n1 and 0 <= j <= self.spec.n2):
            raise InvalidArgumentError("mode indices outside the truncation lattice")
        lo, hi = self._check_window(step_index, coarsening)
        sdt = math.sqrt(self.finest_dt)
        acc = sdt * self.normal_modes(lo)[i, j]
        for s in range(lo + 1, hi):
            acc += sdt * self.normal_modes(s)[i, j]
        return float(acc)

    # -- assembled fields ---------------------------------------------------
    def _fine_field(self, grid, where, step):
        cache_key = (grid, where)
        entry = self._cache.get(cache_key)
        if entry is None:
            ndof = grid.node_count if where == "nodes" else grid.cell_count
            cachable = self.steps * ndof <= _MAX_CACHED_FLOATS
            entry = {} if cachable else None
            self._cache[cache_key] = entry if cachable else False
        elif entry is False:
            entry = None
        if entry is not None and step in entry:
            return entry[step]
        ex, ey = _basis_matrices(grid, self.spec.n1, self.spec.n2, where)
        blk = self._kept.pop(step, None)
        if blk is None:
            blk = self.normal_modes(step)
        coeff = _sqrt_q(self.spec) * (math.sqrt(self.finest_dt) * blk)
        fld = (ex.T @ coeff @ ey).T.ravel()
        if entry is not None:
            entry[step] = fld
        return fld


@lru_cache(maxsize=32)
def _sqrt_q(spec):
    return np.sqrt(spectrum_matrix(spec))


def make_path(spec, seed, realization, finest_dt, steps):
    """Create the (seed, realization)-keyed path over ``steps`` fine steps."""
    finest_dt = float(finest_dt)
    if not (finest_dt > 0 and np.isfinite(finest_dt)):
        raise InvalidArgumentError(f"finest_dt must be positive finite, got {finest_dt}")
    steps = int(steps)
    if steps < 0:
        raise InvalidArgumentError("steps must be >= 0")
    if int(realization) < 0:
        raise InvalidArgumentError("realization index must be >= 0")
    if steps > 2 ** 64:
        raise InvalidArgumentError("step indices must fit the 64-bit Philox counter word")
    return NoisePath(spec, int(seed), int(realization), finest_dt, steps)


def sample_increment(path, grid, step_index, coarsening=1, where="nodes"):
    """Assembled Wiener increment over one coarse step, flat x-fastest order.

    Defined as the sequential sum of the coarse step's fine-step assembled
    fields, so refinement consistency (coarse == sum of fine) is bit-exact
    at every node, matching the mode-level law.
    """
    if where not in ("nodes", "cells"):
        raise InvalidArgumentError(f"unknown sample site family {where!r}")
    lo, hi = path._check_window(step_index, coarsening)
    acc = path._fine_field(grid, where, lo).copy()
    for s in range(lo + 1, hi):
        acc += path._fine_field(grid, where, s)
    return acc
