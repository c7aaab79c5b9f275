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

The phi actions multiply by one form of A, built on the first action and
cached on the operator, never at assembly: the matrix
P = (A + lam I) / beta of the uniformized series
(:attr:`SparseOperator.uniformized_form`), itself a SparseOperator, so
every product an action takes goes through :func:`_matvec_into`. That
cache is why the phi actions take this wrapper rather than a bare scipy
matrix.

Every entry is finite: the constructor rejects NaN and Inf, so an action's
step count and series length are always defined.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import InvalidArgumentError


class SparseOperator:
    """Canonical CSR matrix and the lazily built form the phi actions
    multiply by (see the module docstring). The form never touches the
    matrix, and two threads building it at once build equal values."""

    def __init__(self, mat):
        """Canonical float64 copy of a scipy sparse (or dense) matrix with
        finite entries."""
        self._csr = sp.csr_matrix(mat, dtype=np.float64, copy=True)
        self._csr.sum_duplicates()
        if not np.isfinite(self._csr.data).all():
            raise InvalidArgumentError("operator has NaN/Inf entries")
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
    def uniformized_form(self):
        """(P, beta, lam) with P = (A + lam I) / beta, for a square operator
        with stored entries.

        lam = max(-min_i a_ii, 0) makes the diagonal of A + lam I
        non-negative without a negative shift, and
        beta = max(|| |A + lam I| ||_inf, lam), from absolute row sums, is
        the uniformization rate of the augmented generator
        [[A, f], [0, 0]], whose last row shifted by lam is lam; so
        ||P||_inf <= 1, 0 <= lam / beta <= 1 and beta > 0. On a Metzler A
        (off-diagonal entries >= 0) P >= 0, and beta - lam is A's largest
        row sum when that is >= 0, else 0. (A negative lam, for an
        all-positive diagonal, would make lam / beta negative and, when
        |lam| > ||A + lam I||_inf, below -1, so the f terms would grow
        faster than the Poisson weights fall.)
        """
        if self.n_rows != self.n_cols or self.nnz == 0:
            raise InvalidArgumentError(
                "the uniformized form needs a square operator with stored entries")
        lam = max(-float(self._csr.diagonal().min()), 0.0)
        shifted = self._csr + lam * sp.identity(self.n_rows, format="csr")
        beta = max(float(abs(shifted).sum(axis=1).max()), lam)
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
