"""CSR sparse-operator container.

A thin immutable-by-convention wrapper around the three CSR arrays. Matrix
assembly funnels through :meth:`SparseOperator.from_coo`, which delegates
duplicate summing, explicit-zero elimination, and index sorting to scipy so
the stored format always satisfies: column indices strictly increasing
within each row, no explicit zeros. Matvec multiplies through a scipy CSR
matrix built once per operator; its rows accumulate left to right, so the
products equal ``kernels.csr_matvec_numpy`` bit for bit. The shifted
operator A - mu I that the phi actions multiply by is built on their first
call (:meth:`SparseOperator.shifted`) and cached on the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import InvalidArgumentError


@dataclass
class SparseOperator:
    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _csr: sp.csr_matrix = field(init=False, repr=False, compare=False)
    _shifted: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def save_matrix_market(op, path, comment=""):
    """Write the operator to Matrix Market coordinate text format."""
    scipy.io.mmwrite(str(path), op.to_scipy(), comment=comment)


def load_matrix_market(path):
    return SparseOperator.from_scipy(scipy.io.mmread(str(path)))
