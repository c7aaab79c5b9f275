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
one at the grid sites).

On a uniform grid with N cells along an axis the cosine modes alias at the
sites, so the site field needs one normal per alias class, not per mode
(:func:`alias_classes`). At cell centres (DCT-II) mode k repeats with
period 4N, modes k + 2N and 2N - k equal -(mode k), and modes k = N mod 2N
vanish; at nodes (DCT-I) mode k repeats with period 2N and 2N - k equals
+(mode k). Every mode thus equals a_k times one of the representatives
0 .. C-1 (C = min(n+1, N) at cells, min(n+1, N+1) at nodes), with a_k a
sign, 0 for a vanishing mode, and sqrt(2) for a nonzero mode on class 0.
A fine step's site field is

    dW = sqrt(dt) * sum_j sigma_j Z_j e_j,    sigma_j^2 = sum_{k->j} a_k^2 q_k,

with Z a C1 x C2 block of standard normals: its covariance is
dt sum_k q_k e_k e_k^T, exactly that of the mode series.

Each block of draws is a pure function of (seed, realization, step,
stream) and its shape through the Philox counter-based generator in
:mod:`setd.kernels`: stream 0 holds the (n1+1) x (n2+1) mode draws, stream
1 the exact reference's remainder draws, stream 2 each lattice's class
draws. A draw is fixed by its place in its block, so another truncation or
grid redraws every entry. Fields come from the class draws of their own
lattice, mode increments from the stream-0 draws, whatever the path is
bound to. Paths are refinement consistent: the increment over a coarse
step is the sequential sum of its fine-step increments, bit-for-bit at
mode and at site level, so results cannot depend on worker scheduling.

A study binds each path to its problem's site lattice. The exact
reference then reads that lattice's class draws, the draws the schemes
see, and the first consumer of a fine step's class draw stores the step's
field, so each block is drawn once. A path without ``sites`` stores nothing.
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

    def check_domain(self, L1, L2, owner):
        """Raise unless ``owner`` (named in the message) is on this noise's domain."""
        if (self.L1, self.L2) != (L1, L2):
            raise InvalidArgumentError(
                f"noise is on the domain {self.L1} x {self.L2}, {owner} on {L1} x {L2}")

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


def _alias_1d(n, cells, where):
    """Class j_k and weight a_k of modes k = 0..n along an axis of ``cells``
    cells, and the class count: mode k equals a_k times mode j_k at the
    sites. A vanishing mode has weight 0 on class 0."""
    k = np.arange(n + 1)
    if where == "cells":
        r = k % (4 * cells)
        a = np.where(r < 2 * cells, 1.0, -1.0)   # k + 2N gives -(mode k)
        r = r % (2 * cells)
        a = np.where(r > cells, -a, a)           # 2N - k gives -(mode k)
        a[r == cells] = 0.0                      # k = N mod 2N vanishes
        count = min(n + 1, cells)
    elif where == "nodes":
        r = k % (2 * cells)                      # 2N - k gives +(mode k)
        a = np.ones(n + 1)
        count = min(n + 1, cells + 1)
    else:
        raise InvalidArgumentError(f"unknown site family {where!r}; expected 'nodes' or 'cells'")
    j = np.minimum(r, 2 * cells - r)
    a[(j == 0) & (k > 0)] *= math.sqrt(2.0)      # e_k = +-sqrt(2) e_0 there
    j[a == 0.0] = 0
    return j, a, count


@lru_cache(maxsize=32)
def alias_classes(spec, grid, where):
    """(classes, weights, sigma): the alias classes of the mode lattice on the
    (grid, where) sites, C1 x C2 of them.

    Mode k = (k1, k2) equals a_k times class representative j = (j1, j2) at
    the sites, with a_k the product of its two axes' weights (a sign, 0 for
    a vanishing mode, sqrt(2) on class 0). ``classes`` holds the flat class
    index j1 * C2 + j2 of each mode in the flat (n1+1) x (n2+1) order,
    ``weights`` the array a_k sqrt(q_k), and ``sigma`` the C1 x C2 array
    sqrt(sum_{k->j} a_k^2 q_k), so a field ``modes_at_sites(sigma * Z, grid,
    where)`` with Z standard normal has the site covariance
    sum_k q_k e_k e_k^T. The maps are integer arithmetic; the arrays are
    read-only.
    """
    j1, a1, c1 = _alias_1d(spec.n1, grid.nx, where)
    j2, a2, c2 = _alias_1d(spec.n2, grid.ny, where)
    q = spectrum_matrix(spec)
    classes = (j1[:, None] * c2 + j2[None, :]).ravel()
    weights = a1[:, None] * a2[None, :] * np.sqrt(q)
    var = np.bincount(classes, ((a1 * a1)[:, None] * (a2 * a2)[None, :] * q).ravel(),
                      minlength=c1 * c2)
    sigma = np.sqrt(var).reshape(c1, c2)
    for arr in (classes, weights, sigma):
        arr.setflags(write=False)
    return classes, weights, sigma


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------

@dataclass
class NoisePath:
    """One realization's Wiener path at finest resolution ``finest_dt``.

    All randomness is derived on demand from the Philox key, one block per
    (fine step, stream, shape); the module docstring lists the streams.
    ``sites=(grid, where)`` names the one lattice whose fine-step fields the
    path stores, within the ``_MAX_CACHED_FLOATS`` budget, and whose alias
    classes the exact reference reads (:meth:`_class_map`); fields on other
    lattices are drawn fresh. Stored fields never leave the path, and
    equality means the same blocks of draws: the store and ``sites`` are
    not compared.
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
            self.spec.check_domain(self.sites[0].L1, self.sites[0].L2, "the sites")
            if self.steps * site_index(*self.sites).size <= _MAX_CACHED_FLOATS:
                self._fields = {}

    # -- raw draws --------------------------------------------------------
    def _block(self, step, shape, stream):
        """One block of standard normals of ``shape`` for one fine step."""
        k0, k1 = self._key
        return kernels.normal_block(k0, k1, *shape, step, stream)

    def normal_modes(self, step):
        """Standard-normal block R_{i,j} for one fine step, shape (n1+1, n2+1): stream 0."""
        return self._block(check_int(step, "step", 0, self.steps),
                           (self.spec.n1 + 1, self.spec.n2 + 1), 0)

    # -- coarse steps -------------------------------------------------------
    def coarse_window(self, coarsening, steps, first=0, dt=None):
        """Check ``steps`` coarse steps of ``coarsening`` fine steps each,
        from coarse step ``first``, against the path; return the coarsening.

        The coarsening must be an integer >= 1, the fine steps
        [first * coarsening, (first + steps) * coarsening) must lie inside
        the horizon, and a given ``dt`` must equal coarsening * finest_dt
        to 1e-9 relative, so every scheme sums the same fine increments
        over a coarse step.
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
                f"dt must be coarsening {coarsening} x finest_dt {self.finest_dt}, got {dt}")
        return coarsening

    # -- Brownian mode increments ------------------------------------------
    def brownian_increment_modes(self, step_index, coarsening=1):
        """Delta-beta_{i,j} over coarse step ``step_index``: sqrt(finest_dt)
        times each fine step's stream-0 block, summed in step order, so it
        equals the sequential sum of the fine increments bit-for-bit."""
        coarsening = self.coarse_window(coarsening, 1, step_index)
        lo = step_index * coarsening
        sdt = math.sqrt(self.finest_dt)
        acc = sdt * self.normal_modes(lo)
        for s in range(lo + 1, lo + coarsening):
            acc += sdt * self.normal_modes(s)
        return acc

    # -- the exact reference's classes ---------------------------------------
    def _class_map(self):
        """(classes, W, sigma) the exact reference conditions on: the bound
        lattice's :func:`alias_classes`, or on an unbound path every mode its
        own class with W = sigma = sqrt(q)."""
        if self.sites is not None:
            return alias_classes(self.spec, *self.sites)
        sqrt_q = np.sqrt(spectrum_matrix(self.spec))
        return np.arange(sqrt_q.size), sqrt_q, sqrt_q

    def _class_draw(self, step):
        """The class draw Z of one fine step under :meth:`_class_map`: the
        bound lattice's stream-2 block, whose field it stores, or the
        stream-0 block on an unbound path."""
        if self.sites is None:
            return self.normal_modes(step)
        z = self._block(step, alias_classes(self.spec, *self.sites)[2].shape, 2)
        if self._fields is not None:
            self._fine_field(*self.sites, step, z)
        return z

    # -- assembled fields ---------------------------------------------------
    def _fine_field(self, grid, where, step, z=None):
        """The site field of one fine step, sigma sqrt(finest_dt) Z on the
        lattice's classes, from the class draw ``z`` if given. Fields on the
        bound lattice are stored; the stored array is returned."""
        store = self._fields is not None and (grid, where) == self.sites
        if store and step in self._fields:
            return self._fields[step]
        sigma = alias_classes(self.spec, grid, where)[2]
        if z is None:
            z = self._block(step, sigma.shape, 2)
        out = modes_at_sites(sigma * (math.sqrt(self.finest_dt) * z), grid, where)
        if store:
            self._fields[step] = out
        return out


def make_path(spec, seed, realization, finest_dt, steps, sites=None):
    """Create the (seed, realization)-keyed path over ``steps`` fine steps,
    bound to the ``sites=(grid, where)`` lattice if given: it then stores
    that lattice's fields, and the exact reference reads its class draws."""
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
