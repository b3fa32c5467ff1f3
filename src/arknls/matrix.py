"""Dense and sparse matrix containers plus the few products the solver needs.

Everything is float64.  Dense storage is column-major because the solver's
hot loops read and write whole columns.  The sparse container is standard
CSR with sorted column indices, restricted to nonnegative values since it
only ever holds the data matrix of a nonnegative factorization; its
products run in scipy's compiled sparse kernels on that storage.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "DenseMatrix",
    "SparseMatrixCSR",
    "SparseView",
    "MatrixRef",
    "gram",
    "at_times",
    "relative_residual",
    "frobenius_norm",
    "transposed",
    "row_dense",
]


class DenseMatrix:
    """Column-major dense real matrix.

    Wraps a Fortran-ordered, writable ``float64`` ndarray.  All stored
    values must be finite.  The one exception to the order is the view
    :func:`transposed` returns, whose ``data`` is the row-major ``.T`` of
    the original array.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asfortranarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValueError("dense matrix entries must be finite")
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DenseMatrix":
        # Fast path for freshly computed float64 results; skips validation.
        return cls._view(np.asfortranarray(arr))

    @classmethod
    def _view(cls, arr: np.ndarray) -> "DenseMatrix":
        # Holds ``arr`` itself, whatever its memory order.
        out = object.__new__(cls)
        out.data = arr
        return out

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls._wrap(np.zeros((rows, cols), order="F"))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def copy(self) -> "DenseMatrix":
        return DenseMatrix._wrap(self.data.copy(order="F"))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


class SparseView:
    """A validated nonnegative sparse matrix held by a scipy compressed
    array ``sp``.

    :func:`transposed` returns one over the transpose of a
    :class:`SparseMatrixCSR`'s storage; the products read ``sp`` directly,
    so the view copies nothing.
    """

    __slots__ = ("sp",)

    def __init__(self, sp):
        self.sp = sp

    @property
    def rows(self) -> int:
        return self.sp.shape[0]

    @property
    def cols(self) -> int:
        return self.sp.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.sp.shape

    @property
    def nnz(self) -> int:
        return self.sp.nnz

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols}, nnz={self.nnz})"


class SparseMatrixCSR(SparseView):
    """Compressed sparse row matrix with nonnegative finite values.

    ``row_offsets`` has length ``rows + 1`` and is nondecreasing; column
    indices are strictly increasing within each row.  Duplicate entries are
    therefore impossible once constructed; use :meth:`from_coo` to build
    from unsorted coordinate data.  The three arrays are validated once and
    then held, uncopied, by a ``scipy.sparse.csr_array``.
    """

    __slots__ = ()

    def __init__(self, rows, cols, row_offsets, col_indices, values):
        rows, cols = int(rows), int(cols)
        off = np.ascontiguousarray(row_offsets, dtype=np.int64)
        idx = np.ascontiguousarray(col_indices, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        _validate_csr(rows, cols, off, idx, vals)
        super().__init__(csr_array((vals, idx, off), shape=(rows, cols), copy=False))

    @property
    def row_offsets(self) -> np.ndarray:
        return self.sp.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self.sp.indices

    @property
    def values(self) -> np.ndarray:
        return self.sp.data

    @classmethod
    def from_coo(cls, rows, cols, row_idx, col_idx, values) -> "SparseMatrixCSR":
        """Build from coordinate triples; duplicates are summed."""
        ri = np.asarray(row_idx, dtype=np.int64)
        ci = np.asarray(col_idx, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if not (ri.shape == ci.shape == vals.shape):
            raise ValueError("coordinate arrays must have equal length")
        if ri.size:
            order = np.lexsort((ci, ri))
            ri, ci, vals = ri[order], ci[order], vals[order]
            fresh = np.empty(ri.size, dtype=bool)
            fresh[0] = True
            fresh[1:] = (ri[1:] != ri[:-1]) | (ci[1:] != ci[:-1])
            starts = np.flatnonzero(fresh)
            vals = np.add.reduceat(vals, starts)
            ri, ci = ri[starts], ci[starts]
        offsets = np.zeros(rows + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(np.bincount(ri, minlength=rows))
        return cls(rows, cols, offsets, ci, vals)

    def to_dense(self) -> DenseMatrix:
        return DenseMatrix._wrap(self.sp.toarray(order="F"))


def _validate_csr(rows, cols, off, idx, vals) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if off.shape != (rows + 1,):
        raise ValueError("row_offsets must have length rows + 1")
    if off[0] != 0 or off[-1] != vals.size:
        raise ValueError("row_offsets must start at 0 and end at nnz")
    if np.any(np.diff(off) < 0):
        raise ValueError("row_offsets must be nondecreasing")
    if idx.size != vals.size:
        raise ValueError("col_indices and values must have equal length")
    if vals.size:
        if idx.min() < 0 or idx.max() >= cols:
            raise ValueError("column index out of range")
        rows_of = np.repeat(np.arange(rows), np.diff(off))
        same_row = rows_of[1:] == rows_of[:-1]
        if np.any(same_row & (np.diff(idx) <= 0)):
            raise ValueError("column indices must be strictly increasing per row")
    if not np.isfinite(vals).all():
        raise ValueError("sparse values must be finite")
    if vals.size and vals.min() < 0.0:
        raise ValueError("sparse values must be nonnegative")


# A SparseMatrixCSR is a SparseView; so is the transposed view of one.
MatrixRef = Union[DenseMatrix, SparseView]


def gram(U: DenseMatrix) -> DenseMatrix:
    """Gram matrix of the columns of ``U``.

    The upper triangle is computed and mirrored, so the result is
    symmetric exactly, not just up to rounding.
    """
    if U.cols < 1:
        raise ValueError("gram requires at least one column")
    prod = U.data.T @ U.data
    upper = np.triu(prod)
    return DenseMatrix._wrap(upper + np.triu(prod, 1).T)


def at_times(A: MatrixRef, U: DenseMatrix) -> DenseMatrix:
    """Product of the transpose of ``A`` (m x n) with ``U`` (m x r).

    Both paths read ``A``'s own storage: BLAS for dense input, and for
    sparse input scipy's kernel on the transpose view of ``A.sp``, which
    accumulates each scaled row of ``U`` into the output row given by the
    column index, rows in increasing order.
    """
    u = U.data
    if A.rows != u.shape[0]:
        raise ValueError(
            f"dimension mismatch: A has {A.rows} rows, U has {u.shape[0]}"
        )
    if isinstance(A, DenseMatrix):
        return DenseMatrix._wrap(A.data.T @ u)
    return DenseMatrix._wrap(A.sp.T @ u)


def frobenius_norm(A: MatrixRef) -> float:
    return math.sqrt(_fro_squared(A))


def _fro_squared(A: MatrixRef) -> float:
    if isinstance(A, DenseMatrix):
        flat = A.data.ravel(order="K")
        return float(np.dot(flat, flat))
    return float(np.dot(A.sp.data, A.sp.data))


def relative_residual(A: MatrixRef, U: DenseMatrix, V: DenseMatrix) -> float:
    """Frobenius norm of ``A - U V^T`` divided by the norm of ``A``.

    Uses the trace identity
    ``|A - U V^T|^2 = |A|^2 - 2 <A^T U, V> + <U^T U, V^T V>``
    so the low-rank product is never materialized.  The radicand is clamped
    at zero: near an exact fit it can come out slightly negative in floats.
    """
    if U.rows != A.rows or V.rows != A.cols or U.cols != V.cols:
        raise ValueError("factor dimensions do not conform with A")
    a2 = _fro_squared(A)
    if a2 == 0.0:
        raise ValueError("relative residual undefined for an all-zero matrix")
    h = at_times(A, U).data
    cross = float(np.sum(h * V.data))
    quad = float(np.sum((U.data.T @ U.data) * (V.data.T @ V.data)))
    return math.sqrt(max(a2 - 2.0 * cross + quad, 0.0) / a2)


def transposed(A: MatrixRef) -> MatrixRef:
    """The transpose of ``A`` as an O(1) view sharing ``A``'s storage,
    used to run the mirrored half-sweep."""
    if isinstance(A, DenseMatrix):
        return DenseMatrix._view(A.data.T)
    return SparseView(A.sp.T)


def row_dense(A: MatrixRef, i: int) -> np.ndarray:
    """Row ``i`` of ``A`` as a fresh dense vector of length ``A.cols``.

    On a transposed view this is column ``i`` of the original matrix.
    """
    if not 0 <= i < A.rows:
        raise IndexError(f"row {i} out of range for {A.rows}-row matrix")
    if isinstance(A, DenseMatrix):
        return A.data[i, :].copy()
    return A.sp[i].toarray().ravel()
