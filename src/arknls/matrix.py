"""Dense and sparse matrix containers plus the few products the solver needs.

Everything is float64.  The data matrix is only read: a dense one is held
as given when it is already a C- or Fortran-contiguous float64 array, so
no transpose of it is ever materialized, and the factors and products,
whose columns the solver's hot loops read and write, are column-major.
The sparse container is standard CSR with sorted column indices,
restricted to nonnegative values since it only ever holds the data matrix
of a nonnegative factorization; its products run in scipy's compiled
sparse kernels on that storage, and scipy's format checks validate its
structure.  The product on a CSR operand calls one of those kernels
directly, the private ``scipy.sparse._sparsetools.csr_matvecs``, so as to
write its result block by block into a column-major array; its tests pin
it bit for bit to scipy's own operator.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np
from scipy.sparse import _sparsetools, coo_array, csr_array

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
    "read_rows",
]


class DenseMatrix:
    """Dense real matrix.

    A ``float64`` ndarray that is C- or Fortran-contiguous is held as
    given, not copied: the matrix shares the caller's memory, so later
    edits to the array show through, and :func:`arknls.fit` only reads
    it.  Any other input (another dtype, a strided view, a list) is
    converted to a new Fortran-ordered ``float64`` array.  Wrapping
    reads no values: :func:`arknls.fit`, :func:`arknls.sweep` and
    :func:`relative_residual` check them on every call, from the sum of
    squares they compute anyway, so an entry written after wrapping is
    checked too.  The other functions propagate a NaN as numpy does.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        if (
            isinstance(data, np.ndarray)
            and data.dtype == np.float64
            and (data.flags.c_contiguous or data.flags.f_contiguous)
        ):
            arr = np.asarray(data)  # drops a subclass such as np.matrix
        else:
            arr = np.asfortranarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={arr.ndim}")
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

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

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

    ``row_offsets`` has length ``rows + 1``, is nondecreasing and ends at
    nnz; column indices are strictly increasing within each row, so there
    are no duplicates (use :meth:`from_coo` for unsorted coordinate data).
    The arrays are held by a ``scipy.sparse.csr_array``, whose own checks
    validate the structure: contiguous int64 index arrays and float64
    values uncopied, index arrays of any other integer dtype as int64
    copies, and values of other dtypes as float64 copies.
    """

    __slots__ = ()

    def __init__(self, rows, cols, row_offsets, col_indices, values):
        _check_integers(rows=rows, cols=cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        off = np.ascontiguousarray(_index_array("row_offsets", row_offsets), np.int64)
        idx = np.ascontiguousarray(_index_array("col_indices", col_indices), np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        sp = csr_array((vals, idx, off), shape=(rows, cols), copy=False)
        # scipy drops the entries past a short end without a word, and its
        # full check skips the offsets of a matrix with no entries.
        if off[-1] != vals.size or (not vals.size and off.any()):
            raise ValueError("row_offsets must be nondecreasing and end at nnz")
        sp.check_format(full_check=True)
        if not sp.has_canonical_format:
            raise ValueError("column indices must be strictly increasing per row")
        if vals.size and not (np.isfinite(vals).all() and vals.min() >= 0.0):
            raise ValueError("sparse values must be finite and nonnegative")
        super().__init__(sp)

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
        """Build from coordinate triples in any order; duplicates are summed.

        scipy's COO to CSR conversion sorts and sums.  The result depends
        only on the input arrays, and it equals an in-order sum whenever no
        (row, column) pair occurs more than twice.  With three or more
        copies the last bit may depend on scipy's per-row sort, which is
        not stable.  The matrix never shares the caller's arrays.
        """
        _check_integers(rows=rows, cols=cols)
        ri = _index_array("row_idx", row_idx)
        ci = _index_array("col_idx", col_idx)
        coo = coo_array((values, (ri, ci)), shape=(rows, cols), dtype=np.float64)
        csr = coo.tocsr()
        return cls(rows, cols, csr.indptr, csr.indices, csr.data)

    def to_dense(self) -> DenseMatrix:
        return DenseMatrix._wrap(self.sp.toarray(order="F"))


def _index_array(name, value) -> np.ndarray:
    # scipy truncates float and bool indices; an empty list is let through.
    # The dtype is kept: scipy converts indices to the dtype it picks.
    arr = np.asarray(value)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr


def _check_integers(**values) -> None:
    # A float such as 2.0 passes range checks and fails deep in numpy.
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed) -> None:
    # numpy's errors for a negative or float seed name no field.
    _check_integers(seed=seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")


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

    Both paths read ``A``'s own storage.  Dense input runs as
    ``(U^T A)^T``, the thin factor on the left: BLAS then takes ``A`` as
    the wide operand of an r-row product, which OpenBLAS ran faster than
    ``A^T U`` on either memory order of ``A`` (a held array or the view
    :func:`transposed` returns), and the product's transpose is already
    column-major.  Sparse input runs scipy's compiled kernels on the
    transpose view of ``A.sp``, which accumulate each scaled row of ``U``
    into the output row given by the column index, rows in increasing
    order.  The result is bitwise ``A.sp.T @ U``, Fortran-ordered.  When
    that view is CSR (the U half's ``A V``) it is computed block by block
    of rows with ``scipy.sparse._sparsetools.csr_matvecs`` straight into
    the result (:func:`_sparse_at_times`), so the product holds only the
    result, a row-major copy of ``U`` and one block of rows; the CSC view
    (the V half) takes scipy's operator, whose row-major result is copied.
    Each sparse output column depends only on its own column of ``U``, so
    a product on a subset of the columns equals those columns of the full
    product bit for bit; the solver relies on this to skip all-zero
    columns.  The dense BLAS product has no such property: on a column
    subset OpenBLAS changed the last bits, and so it did between the two
    memory orders of ``A`` on products under about 1e6 multiply-adds.
    """
    u = U.data
    if isinstance(A, DenseMatrix):
        _check_rows(A, u)
        return DenseMatrix._wrap((u.T @ A.data).T)
    return DenseMatrix._view(_sparse_at_times(A, u))


def _check_rows(A: MatrixRef, u: np.ndarray) -> None:
    if A.rows != u.shape[0]:
        raise ValueError(
            f"dimension mismatch: A has {A.rows} rows, U has {u.shape[0]}"
        )


# Rows of a CSR product computed at a time by _sparse_at_times.
_ROW_BLOCK = 256


def _sparse_at_times(A: SparseView, u: np.ndarray, live=None) -> np.ndarray:
    """``A^T u`` for sparse ``A``, as a new Fortran-ordered array.

    With ``live``, an index array of columns of ``u``, only those columns
    of the product are computed and the others are exact zeros.  When
    ``A.sp.T`` is CSR with float64 values, the product runs
    ``scipy.sparse._sparsetools.csr_matvecs``, the kernel scipy's operator
    calls for it, on a row-major copy of those columns (one or more),
    :data:`_ROW_BLOCK` rows at a time.  Each block starts from zeros in
    one reused row-major buffer, as the operator's whole result does, and
    is copied into its rows of the result, so every output row comes from
    the same operations in the same order as in scipy's product, and no
    m x r row-major result or Fortran copy of it is made.  The kernel
    writes its output only if that is a C-contiguous array of the values'
    dtype, hence the float64 guard.  The public form of the same loop,
    ``sp[start:stop] @ x``, gives the same bits, but each slice copies its
    block's indices and values: on ``sparse-mtx`` it made a sweep 40-70%
    slower and the peak 0.22 MB higher.  Everything else (other dtypes, and
    the CSC operand, whose kernel scatters each stored entry anywhere in
    the output) runs scipy's operator on the same row-major copy, whose
    row-major result is then copied.  A ``u`` whose row count is not
    ``A.rows`` raises :class:`ValueError` first: the kernel checks no sizes
    and would read past the end of a short ``u``.
    """
    _check_rows(A, u)
    sp = A.sp.T
    m, n = sp.shape
    cols = slice(None) if live is None else live
    x = np.ascontiguousarray(u if live is None else u.take(live, axis=1))
    # Zeros only where columns are skipped.
    new = np.empty if live is None else np.zeros
    if sp.format == "csr" and sp.dtype == x.dtype == np.float64:
        out = new((m, u.shape[1]), order="F")
        r = x.shape[1]
        block = np.empty((min(m, _ROW_BLOCK), r))
        for start in range(0, m, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, m)
            rows = block[: stop - start]
            rows.fill(0.0)
            _sparsetools.csr_matvecs(
                stop - start,
                n,
                r,
                sp.indptr[start : stop + 1],
                sp.indices,
                sp.data,
                x.ravel(),
                rows.ravel(),
            )
            out[start:stop, cols] = rows
        return out
    # x is freed before the result is allocated, so the peak does not rise.
    prod = sp @ x
    del x
    out = new((m, u.shape[1]), order="F")
    out[:, cols] = prod
    return out


def frobenius_norm(A: MatrixRef) -> float:
    return math.sqrt(_fro_squared(A))


def _fro_squared(A: MatrixRef) -> float:
    if isinstance(A, DenseMatrix):
        flat = A.data.ravel(order="K")
        return float(np.dot(flat, flat))
    return float(np.dot(A.sp.data, A.sp.data))


def _finite_fro2(A: MatrixRef) -> float:
    """``|A|^2``, after checking that a dense ``A`` holds only finite values.

    A sum of squares is finite only if every entry is, so ``|A|^2`` screens
    the array without the m x n mask ``np.isfinite`` builds.  The exact
    scan runs only when the screen fails: on a NaN, an infinity, or squares
    that overflow, which it accepts.
    """
    fro2 = _fro_squared(A)
    if (
        not math.isfinite(fro2)
        and isinstance(A, DenseMatrix)
        and not np.isfinite(A.data).all()
    ):
        raise ValueError("dense matrix entries must be finite")
    return fro2


def relative_residual(A: MatrixRef, U: DenseMatrix, V: DenseMatrix) -> float:
    """Frobenius norm of ``A - U V^T`` divided by the norm of ``A``, from
    :func:`_trace_residual`, so the low-rank product is never materialized.
    A dense ``A`` with a NaN or an infinite entry raises :class:`ValueError`,
    and a non-finite residual :class:`FloatingPointError`.
    """
    if U.rows != A.rows or V.rows != A.cols or U.cols != V.cols:
        raise ValueError("factor dimensions do not conform with A")
    a2 = _finite_fro2(A)
    if a2 == 0.0:
        raise ValueError("relative residual undefined for an all-zero matrix")
    return math.sqrt(_trace_residual(a2, at_times(A, U).data, V, gram(U).data)[0] / a2)


def _trace_residual(fro2: float, H, X: DenseMatrix, M) -> tuple[float, np.ndarray]:
    """``|A - C X^T|^2 = |A|^2 - 2 <H, X> + <X^T X, M>`` from ``fro2 = |A|^2``,
    ``H = A^T C`` and ``M = C^T C``, clamped at zero (near an exact fit it
    can come out slightly negative), and ``X^T X`` from :func:`gram`.  A
    non-finite value raises :class:`FloatingPointError`.
    """
    # einsum sums the products without forming them, and its order does
    # not depend on the BLAS thread count as a ddot's may.
    cross = float(np.einsum("ij,ij->", X.data, H))
    x_gram = gram(X).data
    value = fro2 - 2.0 * cross + float(np.sum(x_gram * M))
    if not math.isfinite(value):
        raise FloatingPointError(f"numerical breakdown: squared residual is {value}")
    return max(value, 0.0), x_gram


def transposed(A: MatrixRef) -> MatrixRef:
    """The transpose of ``A`` as an O(1) view sharing ``A``'s storage,
    used to run the mirrored half-sweep."""
    if isinstance(A, DenseMatrix):
        return DenseMatrix._view(A.data.T)
    return SparseView(A.sp.T)


RowEntries = dict[int, tuple[Union[np.ndarray, slice], np.ndarray]]


def read_rows(A: MatrixRef, rows) -> RowEntries:
    """Rows ``rows`` of ``A``, each as a pair (column slots, values).

    On a transposed view row ``i`` is column ``i`` of the original matrix.
    This is the one read of ``A`` by rows; a repair writes a row into a
    zeroed cache column as ``out[slots] = values``.  Dense input gives each
    row as a view with slots ``slice(None)``.  Sparse input gives compact
    pairs read straight from the compressed arrays, with a stored -0.0
    read as 0.0, as scipy's ``toarray`` does.  A CSR matrix slices each
    row, O(nnz of the row).  The CSC transposed view stores its rows
    scattered over every column, so all wanted rows are found in one pass
    over the ``nnz`` row indices through a boolean table of the wanted
    rows: the pass allocates one byte per stored entry, and reading many
    rows costs about as much as reading one.  No copy of ``A`` is kept.
    """
    wanted = np.unique(np.asarray(rows, dtype=np.int64))
    if wanted.size and (wanted[0] < 0 or wanted[-1] >= A.rows):
        bad = wanted[0] if wanted[0] < 0 else wanted[-1]
        raise IndexError(f"row {bad} out of range for {A.rows}-row matrix")
    if isinstance(A, DenseMatrix):
        return {int(i): (slice(None), A.data[i, :]) for i in wanted}
    sp = A.sp
    if sp.format == "csr":
        out = {}
        for i in wanted:
            span = slice(sp.indptr[i], sp.indptr[i + 1])
            # Adding 0.0 turns -0.0 into 0.0 and copies the values.
            out[int(i)] = (sp.indices[span], sp.data[span] + 0.0)
        return out
    table = np.zeros(A.rows, dtype=bool)
    table[wanted] = True
    hits = np.flatnonzero(table[sp.indices])
    owner = sp.indices[hits]
    slots = np.searchsorted(sp.indptr, hits, side="right") - 1
    values = sp.data[hits] + 0.0
    return {int(i): (slots[owner == i], values[owner == i]) for i in wanted}

