"""CSR sparse-operator container.

A :class:`SparseOperator` holds one canonical scipy CSR matrix: duplicates
summed, explicit zeros dropped, column indices strictly increasing within
each row. Its one constructor makes that form; :meth:`SparseOperator.from_coo`
and :meth:`SparseOperator.from_scipy` are entry points into it, and
``indptr``, ``indices`` and ``data`` are the matrix's own arrays.

Every product is one call of scipy's compiled CSR kernel
(``scipy.sparse._sparsetools.csr_matvec``, the routine ``csr @ x`` ends in)
through one private helper, :func:`_matvec_into`, which zero-fills a
caller-owned float64 buffer and runs the kernel into it.
:meth:`SparseOperator.matvec` validates its operand and passes a fresh
buffer; the phi-action series of :mod:`setd.krylov` call the helper
directly, into two buffers each action owns, and so skip scipy's ``@``
dispatch, which costs about as much as the product itself. Rows accumulate
left to right from 0, so every product equals ``csr @ x`` and
``kernels.csr_matvec_numpy`` bit for bit. The kernel is private scipy API:
if scipy moves it, importing this module fails.

The phi actions multiply by one of two forms of A, each built on the first
action that needs it and cached on the operator, never at assembly: the
shifted operator A - mu I of the Taylor route
(:attr:`SparseOperator.taylor_form`) and, for a Metzler A (off-diagonal
entries >= 0), the non-negative matrix P = (A + lam I) / beta of the
uniformized route (:attr:`SparseOperator.uniformized_form`). Both forms are
SparseOperators, so every product an action takes goes through
:func:`_matvec_into`. Those caches are why the phi actions take this
wrapper rather than a bare scipy matrix.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import InvalidArgumentError


class SparseOperator:
    """Canonical CSR matrix and the lazily built forms the phi actions
    multiply by (see the module docstring). The forms never touch the
    matrix, and two threads building one at once build equal values."""

    def __init__(self, mat):
        """Canonical float64 copy of a scipy sparse (or dense) matrix."""
        self._csr = sp.csr_matrix(mat, dtype=np.float64, copy=True)
        self._csr.sum_duplicates()
        self._csr.eliminate_zeros()
        self._csr.sort_indices()
        self.shape = self._csr.shape
        self.n_rows, self.n_cols = self.shape

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from COO triplets; duplicates are summed, zeros dropped."""
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)))

    @classmethod
    def from_scipy(cls, mat):
        return cls(mat)

    nnz = property(lambda self: int(self._csr.nnz))
    indptr = property(lambda self: self._csr.indptr)
    indices = property(lambda self: self._csr.indices)
    data = property(lambda self: self._csr.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise InvalidArgumentError(
                f"operand has shape {x.shape}, operator expects ({self.n_cols},)"
            )
        return _matvec_into(self, np.ascontiguousarray(x), np.empty(self.n_rows))

    def __matmul__(self, x):
        return self.matvec(x)

    def to_scipy(self):
        return self._csr

    def dense(self):
        return self._csr.toarray()

    def scale_rows(self, factors):
        """New operator with row i multiplied by factors[i]; a row scaled by
        0 comes out empty, with no stored zeros."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.n_rows,):
            raise InvalidArgumentError("row factor vector has wrong length")
        data = self.data * np.repeat(factors, np.diff(self.indptr))
        return SparseOperator(
            sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape))

    @cached_property
    def taylor_form(self):
        """(A - mu I, mu, ||A - mu I||_1) with mu = trace / n: the operator
        every Taylor term of the phi actions multiplies by, the shift, and
        the norm their (m, s) is chosen from."""
        mu = float(self._csr.diagonal().sum()) / self.n_rows
        op = SparseOperator(self._csr - mu * sp.identity(self.n_rows, format="csr"))
        return op, mu, float(abs(op._csr).sum(axis=0).max())

    @cached_property
    def uniformized_form(self):
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
        faster than the Poisson weights fall.)
        """
        if self.n_rows != self.n_cols or self.nnz == 0:
            return None
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        if np.any(self.data[self.indices != rows] < 0):
            return None
        lam = max(-float(self._csr.diagonal().min()), 0.0)
        shifted = self._csr + lam * sp.identity(self.n_rows, format="csr")
        norm = float(shifted.sum(axis=1).max())
        if norm == 0.0:
            return None
        beta = max(norm, lam)
        return SparseOperator(shifted / beta), beta, lam


def _matvec_into(op, x, out):
    """out = A x for the SparseOperator op, and return out.

    Unchecked: x is a C-contiguous float64 array of op.n_cols entries, out a
    C-contiguous float64 buffer of op.n_rows entries that does not overlap
    x. out is zero-filled and the kernel adds each row's products to it left
    to right, as ``csr @ x`` does.
    """
    out.fill(0.0)
    csr = op._csr
    _csr_matvec(op.n_rows, op.n_cols, csr.indptr, csr.indices, csr.data, x, out)
    return out


def save_matrix_market(op, path, comment=""):
    """Write the operator to Matrix Market coordinate text format."""
    scipy.io.mmwrite(str(path), op.to_scipy(), comment=comment)


def load_matrix_market(path):
    return SparseOperator.from_scipy(scipy.io.mmread(str(path)))
