"""CSR sparse-operator container.

A thin immutable-by-convention wrapper around the three CSR arrays. Matrix
assembly funnels through :meth:`SparseOperator.from_coo`, which delegates
duplicate summing, explicit-zero elimination, and index sorting to scipy so
the stored format always satisfies: column indices strictly increasing
within each row, no explicit zeros. Matvec multiplies through a scipy CSR
matrix built once per operator; its rows accumulate left to right, so the
products equal ``kernels.csr_matvec_numpy`` bit for bit.

The phi actions multiply by one of two forms of A, each built on the first
action that needs it and cached on the operator, never at assembly: the
shifted operator A - mu I of the Taylor route (:meth:`SparseOperator.shifted`)
and, for a Metzler A (off-diagonal entries >= 0), the non-negative matrix
P = (A + lam I) / beta of the uniformized route
(:meth:`SparseOperator.uniformized`), whose Poisson weights are cached per
step length beside it (:meth:`SparseOperator.step_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import InvalidArgumentError

_CACHED_STEP_LENGTHS = 64   # Poisson weight sets kept per operator


@dataclass
class SparseOperator:
    """CSR matrix with cached scipy product and the lazily built forms the
    phi actions multiply by (see the module docstring); the caches take no
    part in equality and never touch the three CSR arrays."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _csr: sp.csr_matrix = field(init=False, repr=False, compare=False)
    _shifted: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _uniformized: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _poisson: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._csr = self.to_scipy()

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from COO triplets; duplicates are summed, zeros dropped."""
        mat = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (np.asarray(rows), np.asarray(cols))),
            shape=(n_rows, n_cols),
        ).tocsr()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        return cls(n_rows, n_cols, mat.indptr, mat.indices, mat.data)

    @classmethod
    def from_scipy(cls, mat):
        m = sp.csr_matrix(mat).copy()
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def identity(cls, n):
        return cls.from_scipy(sp.identity(n, format="csr"))

    @property
    def nnz(self):
        return int(self.data.shape[0])

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise InvalidArgumentError(
                f"operand has shape {x.shape}, operator expects ({self.n_cols},)"
            )
        return self._csr @ x

    def __matmul__(self, x):
        return self.matvec(x)

    def to_scipy(self):
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols)
        )

    def dense(self):
        return self.to_scipy().toarray()

    def row_sums(self):
        out = np.zeros(self.n_rows)
        np.add.at(out, np.repeat(np.arange(self.n_rows), np.diff(self.indptr)), self.data)
        return out

    def scale_rows(self, factors):
        """New operator with row i multiplied by factors[i]."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.n_rows,):
            raise InvalidArgumentError("row factor vector has wrong length")
        data = self.data * np.repeat(factors, np.diff(self.indptr))
        return SparseOperator.from_scipy(
            sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        )

    def zero_rows(self, mask):
        """New operator with rows where mask is True emptied."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise InvalidArgumentError("row mask has wrong length")
        keep = ~mask[np.repeat(np.arange(self.n_rows), np.diff(self.indptr))]
        data = np.where(keep, self.data, 0.0)
        return SparseOperator.from_scipy(
            sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        )

    def shifted(self):
        """A - mu I with mu = trace / n: the operator every Taylor term of the
        phi actions multiplies by, as a SparseOperator.

        Built on the first call (the first phi action, never at assembly)
        and cached with mu and its 1-norm; the CSR arrays of A are left
        alone. Two threads filling the cache at once build equal values.
        """
        if self._shifted is None:
            mu = float(self._csr.diagonal().sum()) / self.n_rows
            op = SparseOperator.from_scipy(
                self._csr - mu * sp.identity(self.n_rows, format="csr"))
            self._shifted = (op, mu, float(abs(op._csr).sum(axis=0).max()))
        return self._shifted[0]

    def shifted_norm(self):
        """(mu, ||A - mu I||_1), the shift of the phi actions and the norm
        their (m, s) is chosen from; cached with :meth:`shifted`."""
        self.shifted()
        return self._shifted[1:]

    def uniformized(self):
        """(P, beta, lam) with P = (A + lam I) / beta >= 0, or None when A is
        not Metzler (some off-diagonal entry < 0), not square, or
        A + lam I = 0 (A a multiple of I with a non-positive factor).

        lam = max(-min_i a_ii, 0) makes the diagonal of A + lam I
        non-negative without a negative shift, and
        beta = max(||A + lam I||_inf, lam) is the uniformization rate of the
        augmented generator [[A, f], [0, 0]], whose last row shifted by lam
        is lam; so ||P||_inf <= 1, 0 <= lam / beta <= 1, and beta - lam is
        A's largest row sum when that is >= 0, else 0. (A negative lam, for
        an all-positive diagonal, would make lam / beta negative and, when
        |lam| > ||A + lam I||_inf, below -1, so the f terms would grow
        faster than the Poisson weights fall.) P is a SparseOperator, so
        its products go through :meth:`matvec`.

        Built on the first call (the first phi action, never at assembly)
        and cached; the CSR arrays of A are left alone. Two threads filling
        the cache at once build equal values.
        """
        if self._uniformized is None:
            self._uniformized = self._build_uniformized()
        return self._uniformized or None

    def step_weights(self, t, build):
        """``build()``, the uniformized route's weights for step length t,
        built on the first action with that t and cached.

        A study uses at most a handful of step lengths per operator; the
        cache is emptied when it holds _CACHED_STEP_LENGTHS of them, which
        bounds it at about 2 MB for steps with t*beta <= 500. Two threads
        filling it at once build equal values.
        """
        entry = self._poisson.get(t)
        if entry is None:
            entry = build()
            if len(self._poisson) >= _CACHED_STEP_LENGTHS:
                self._poisson.clear()
            self._poisson[t] = entry
        return entry

    def _build_uniformized(self):
        if self.n_rows != self.n_cols or self.nnz == 0:
            return ()
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        if np.any(self.data[self.indices != rows] < 0):
            return ()
        lam = max(-float(self._csr.diagonal().min()), 0.0)
        shifted = self._csr + lam * sp.identity(self.n_rows, format="csr")
        norm = float(shifted.sum(axis=1).max())
        if norm == 0.0:
            return ()
        beta = max(norm, lam)
        return SparseOperator.from_scipy(shifted / beta), beta, lam


def save_matrix_market(op, path, comment=""):
    """Write the operator to Matrix Market coordinate text format."""
    scipy.io.mmwrite(str(path), op.to_scipy(), comment=comment)


def load_matrix_market(path):
    return SparseOperator.from_scipy(scipy.io.mmread(str(path)))
