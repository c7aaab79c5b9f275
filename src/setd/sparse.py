"""Sparse-operator container and its compiled product.

A :class:`SparseOperator` holds one canonical scipy CSR matrix: duplicates
summed, explicit zeros dropped, column indices strictly increasing within
each row. Its one constructor makes that form; :meth:`SparseOperator.from_coo`
is an entry point into it, and ``indptr``, ``indices`` and ``data`` are the
matrix's own arrays.

Every product goes through one accumulate kernel, ``out += A x``
(:attr:`SparseOperator.add_product`), bound to the operator's arrays on its
first product and cached on the operator, never at assembly. It is one call
of a compiled scipy kernel, the routines ``dia @ x`` and ``csr @ x`` end in,
without scipy's ``@`` dispatch, which costs about as much as the product
itself:

* ``scipy.sparse._sparsetools.dia_matvec`` on the matrix stored by
  diagonals, when its d distinct diagonals (counted from the CSR arrays)
  hold d * n_cols <= 2 * nnz slots. Every study operator is a 5- or
  7-diagonal stencil and takes it; diagonal storage of an unstructured
  matrix grows towards n^2, so
* ``scipy.sparse._sparsetools.csr_matvec`` serves every other matrix.

The diagonals are kept in ascending offset order, so both kernels add each
row's products to ``out[i]`` in column order, as ``csr @ x`` does, and give
its bits for finite operands (the padding zeros of the diagonal storage add
+-0). :meth:`SparseOperator.matvec` validates its operand and accumulates
into a fresh zero array; the phi-action series of :mod:`setd.krylov`
accumulate into buffers each action owns. The kernels are private scipy
API: if scipy moves them, importing this module fails.

The phi actions multiply by one form of A, built on the first action and
cached on the operator, never at assembly: the matrix
P = (A + lam I) / beta of the uniformized series
(:attr:`SparseOperator.uniformized_form`), itself a SparseOperator with its
own product kernel. That cache is why the phi actions take this wrapper
rather than a bare scipy matrix.

Every entry is finite: the constructor rejects NaN and Inf, so an action's
step count and series length are always defined.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse._sparsetools import dia_matvec as _dia_matvec

from .errors import InvalidArgumentError


class SparseOperator:
    """Canonical CSR matrix, its product kernel and the form the phi actions
    multiply by, both built lazily (see the module docstring). Neither
    touches the matrix, and two threads building one at once build equal
    values."""

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
        out = np.zeros(self.n_rows)
        self.add_product(np.ascontiguousarray(x), out)
        return out

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

    @cached_property
    def add_product(self):
        """The compiled kernel ``add_product(x, out)``: out += A x.

        Unchecked: x is a C-contiguous float64 array of n_cols entries, out
        a C-contiguous float64 buffer of n_rows entries that does not
        overlap x. Built on the first product (module docstring).
        """
        return _product_kernel(self._csr)


def _product_kernel(csr):
    """out += csr x: the diagonal kernel when the d distinct diagonals fill
    d * n_cols <= 2 * nnz slots, else the CSR kernel."""
    if len(np.unique(_entry_offsets(csr))) * csr.shape[1] <= 2 * csr.nnz:
        return _dia_kernel(csr)
    return _csr_kernel(csr)


def _entry_offsets(csr):
    """The diagonal offset, column - row, of each stored entry."""
    rows = np.arange(csr.shape[0], dtype=csr.indices.dtype)
    return csr.indices - np.repeat(rows, np.diff(csr.indptr))


def _csr_kernel(csr):
    """out += csr x as one call of scipy's compiled CSR kernel."""
    return partial(_csr_matvec, *csr.shape, csr.indptr, csr.indices, csr.data)


def _dia_kernel(csr):
    """out += csr x as one call of scipy's compiled diagonal kernel, over the
    matrix stored by its diagonals in ascending offset order."""
    entry_offsets = _entry_offsets(csr)
    offsets = np.unique(entry_offsets)
    n_cols = csr.shape[1]
    diagonals = np.zeros((len(offsets), n_cols))
    diagonals[np.searchsorted(offsets, entry_offsets), csr.indices] = csr.data
    return partial(_dia_matvec, *csr.shape, len(offsets), n_cols, offsets, diagonals)


def save_matrix_market(op, path, comment=""):
    """Write the operator to Matrix Market coordinate text format."""
    scipy.io.mmwrite(str(path), op.to_scipy(), comment=comment)


def load_matrix_market(path):
    return SparseOperator(scipy.io.mmread(str(path)))
