"""Dense and sparse matrix containers plus the few products the solver needs.

Everything is float64.  The data matrix is only read: a dense one is held
as given when it is already a C- or Fortran-contiguous float64 array, so
no transpose of it is ever materialized, and the factors and products,
whose columns the solver's hot loops read and write, are column-major.
The sparse container is standard CSR with sorted column indices,
restricted to nonnegative values since it only ever holds the data matrix
of a nonnegative factorization; its products run in scipy's compiled
sparse kernels on that storage, and scipy's format checks validate its
structure.  The products call those kernels directly, the private
``scipy.sparse._sparsetools.csr_matvecs`` and ``csc_matvecs``: the CSR
one so as to write its result block by block into a column-major array,
and both so as to split a large product between the CPUs the process may
run on.  Each output entry gets the same operations in the same order as
in scipy's own operator, whatever the split, so the results do not depend
on the worker count; the tests pin both kernels bit for bit to that
operator.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Union

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
    copies, and values of other dtypes as float64 copies.  The values are
    checked here, and again on every call of :func:`arknls.fit` and
    :func:`arknls.sweep` (finite and nonnegative) and of
    :func:`relative_residual` (finite), which read them as they are then:
    a value written into held ``values`` later is caught too.
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
    order.  The result is bitwise ``A.sp.T @ U``, Fortran-ordered, for any
    number of workers (:func:`_sparse_at_times`).  When that view is CSR
    (the U half's ``A V``) it is computed block by block of rows with
    ``scipy.sparse._sparsetools.csr_matvecs`` straight into the result, so
    the product holds only the result, a row-major copy of ``U`` and one
    block of rows, which workers splitting the rows share out.  When it is
    CSC (the V half) each worker takes a range of ``U``'s columns, copies
    it row-major and runs ``csc_matvecs`` into its own row-major result,
    which is copied into the result once the copies of ``U`` are freed;
    the product then holds what scipy's operator does.  Each sparse output
    column depends only on its own column of ``U``, so
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


# Rows of a CSR product computed at a time by _sparse_at_times.  Split
# between workers, each takes blocks of 1/workers of this, so that their
# row buffers add up to one block of this many rows.
_ROW_BLOCK = 256

# The floors below were measured on a 2-core Xeon virtual machine with
# one BLAS thread, split products against unsplit ones.
#
# Least work, in stored entries times product columns (nnz * r), that a
# split of a sparse product hands each worker.  Handing a share to the
# pool and waiting for it took about 0.1 ms, and the kernels run about
# 2.5e9 of these units a second; split in two, CSC products of up to 1e6
# units ran no faster.
_SHARE_FLOOR = 1 << 19

# Least work a CSR split puts in each worker's block of rows.  Every block
# takes the GIL for its Python steps, and a worker that finds the other
# holding it waits tens of microseconds: on blocks of 3 200 units the split
# ran 2.8 times slower than one thread, on 25 600 about as fast, and on
# 51 200 and more mostly faster.
_BLOCK_FLOOR = 1 << 16

# Least columns of ``u`` in each share of a CSC split.  Every share reads
# all of the stored entries, so on few columns the workers contend for
# memory: with 2 or 3 columns a share the split ran up to 1.7 times slower
# than one thread, with 4 or more mostly faster.
_SHARE_COLUMNS = 4

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """Workers a sparse product is split between: the CPUs this process
    may run on (its affinity mask, as ``taskset`` or a cgroup sets it),
    or the machine's count where the platform reports no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _forget_pool() -> None:
    # A forked child has none of its parent's threads; it starts its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    # The pool, created on first use with a thread per worker but the
    # calling thread's.
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(_worker_count() - 1, 1), thread_name_prefix="arknls"
            )
        return _pool


def _run_shares(task, shares: list) -> list:
    """``[task(s) for s in shares]``, run by the calling thread and by pool
    threads, each taking the next share no thread has taken until none is
    left.  The caller waits only for the shares taken: a pool thread that
    wakes once the caller has taken them all takes none, so a pool thread
    that is slow to wake, or busy with another caller's shares, costs at
    worst the time of running every share on the calling thread.  Every
    share has finished when this returns or raises; the first exception a
    share raised is raised here, and no share is taken after it.  A single
    share never touches the pool.
    """
    results = [None] * len(shares)
    errors = []
    taken = running = 0
    done = threading.Condition()

    def take_shares():
        nonlocal taken, running
        while True:
            with done:
                if taken == len(shares) or errors:
                    return
                index, taken, running = taken, taken + 1, running + 1
            try:
                results[index] = task(shares[index])
            except BaseException as error:
                with done:
                    errors.append(error)
            finally:
                with done:
                    running -= 1
                    done.notify_all()

    if len(shares) > 1:
        pool = _executor()
        for _ in shares[1:]:
            pool.submit(take_shares)
    take_shares()
    with done:
        done.wait_for(lambda: not running)
    if errors:
        raise errors[0]
    return results


def _row_major(u: np.ndarray, cols) -> np.ndarray:
    """Columns ``cols`` (a slice or an index array) of ``u`` as a
    C-ordered array, one copy at most: ``take`` and fancy indexing first
    copy a Fortran ``u`` whole."""
    if isinstance(cols, slice):
        return np.ascontiguousarray(u[:, cols])
    x = np.empty((u.shape[0], len(cols)), u.dtype)
    for j, c in enumerate(cols):
        x[:, j] = u[:, c]
    return x


def _csr_rows(sp, x, out, cols, start: int, stop: int, step: int) -> None:
    # Rows start:stop of the CSR ``sp`` times ``x`` into ``out[:, cols]``,
    # ``step`` rows at a time through one reused row-major buffer.
    n, r = sp.shape[1], x.shape[1]
    block = np.empty((min(step, stop - start), r))
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        rows = block[: hi - lo]
        rows.fill(0.0)
        _sparsetools.csr_matvecs(
            hi - lo,
            n,
            r,
            sp.indptr[lo : hi + 1],
            sp.indices,
            sp.data,
            x.ravel(),
            rows.ravel(),
        )
        out[lo:hi, cols] = rows


def _csc_columns(sp, u: np.ndarray, cols) -> np.ndarray:
    # The CSC ``sp`` times columns ``cols`` of ``u``, as scipy's operator
    # computes it: the kernel into a zeroed row-major result.
    x = _row_major(u, cols)
    y = np.zeros((sp.shape[0], x.shape[1]))
    _sparsetools.csc_matvecs(
        sp.shape[0],
        sp.shape[1],
        x.shape[1],
        sp.indptr,
        sp.indices,
        sp.data,
        x.ravel(),
        y.ravel(),
    )
    return y


def _sparse_at_times(A: SparseView, u: np.ndarray, live=None) -> np.ndarray:
    """``A^T u`` for sparse ``A``, as a new Fortran-ordered array.

    With ``live``, an index array of columns of ``u``, only those columns
    of the product are computed and the others are exact zeros.  Both
    compiled kernels scipy's operator calls accumulate each output entry
    on its own, over the stored entries in storage order, so a split of
    the work by output rows or by columns of ``u`` gives scipy's bits.

    A product is split into at most :func:`_worker_count` shares, run by
    the calling thread and a pool (:func:`_run_shares`), and into no more
    shares than leave :data:`_SHARE_FLOOR` work in each, :data:`_BLOCK_FLOOR`
    in each CSR block of rows and :data:`_SHARE_COLUMNS` columns of ``u``
    in each CSC share.  So a process that may run on one CPU, a small
    product, a CSC product on fewer than ``2 * _SHARE_COLUMNS`` columns
    (``r = 1`` among them) and a CSR one with few stored entries per row
    run unsplit, on the calling thread.  The kernels write their output
    only if that is a C-contiguous array of the values' dtype, hence the
    float64 guards; other dtypes run scipy's operator, unsplit.

    When ``A.sp.T`` is CSR (the U half's ``A V``), ``csr_matvecs`` reads
    one shared row-major copy of the live columns.  Each share is a range
    of rows, with about equal numbers of stored entries, computed
    :data:`_ROW_BLOCK` / shares rows at a time: each block starts from
    zeros in the share's reused row-major buffer, as the operator's whole
    result does, and is copied into its rows of the result.  So no m x r
    row-major result or Fortran copy of it is made, and the buffers add up
    to one block of :data:`_ROW_BLOCK` rows.  The public form of the same
    loop, ``sp[start:stop] @ x``, gives the same bits, but each slice
    copies its block's indices and values: on ``sparse-mtx`` it made a
    sweep 40-70% slower and the peak 0.22 MB higher.

    When ``A.sp.T`` is CSC (the V half's ``A^T U``), whose kernel scatters
    each stored entry anywhere in the output, each share is a range of the
    live columns: one row-major copy of them (:func:`_row_major`) and
    ``csc_matvecs`` into the share's own zeroed row-major result, as the
    operator computes it.  The result is allocated once those copies are
    freed, so the split product holds no more than scipy's operator, which
    runs the unsplit product on one row-major copy of the live columns.

    A ``u`` whose row count is not ``A.rows`` raises :class:`ValueError`
    first: the kernels check no sizes and would read past the end of a
    short ``u``.
    """
    _check_rows(A, u)
    sp = A.sp.T
    m, n = sp.shape
    cols = slice(None) if live is None else live
    r = u.shape[1] if live is None else len(live)
    kernel = sp.dtype == u.dtype == np.float64
    work = sp.nnz * r
    if sp.format == "csr":
        cap = work * _ROW_BLOCK // (max(m, 1) * _BLOCK_FLOOR)
    else:
        cap = r // _SHARE_COLUMNS
    shares = max(1, min(_worker_count(), work // _SHARE_FLOOR, cap))
    # Zeros only where columns are skipped.
    new = np.empty if live is None else np.zeros
    if kernel and sp.format == "csr":
        step = _ROW_BLOCK // shares
        x = _row_major(u, cols)
        out = new((m, u.shape[1]), order="F")
        bounds = _row_bounds(sp.indptr, shares, step)
        _run_shares(
            lambda span: _csr_rows(sp, x, out, cols, *span, step),
            list(zip(bounds, bounds[1:])),
        )
        return out
    if kernel and sp.format == "csc" and shares > 1:
        ends = [r * s // shares for s in range(shares + 1)]
        parts = [
            slice(a, b) if live is None else live[a:b] for a, b in zip(ends, ends[1:])
        ]
        products = _run_shares(lambda part: _csc_columns(sp, u, part), parts)
        out = new((m, u.shape[1]), order="F")
        for part, y in zip(parts, products):
            out[:, part] = y
        return out
    # x is freed before the result is allocated, so the peak does not rise.
    x = _row_major(u, cols)
    prod = sp @ x
    del x
    out = new((m, u.shape[1]), order="F")
    out[:, cols] = prod
    return out


def _row_bounds(indptr: np.ndarray, shares: int, step: int) -> list[int]:
    # Bounds of up to ``shares`` row ranges, each a whole number of
    # ``step``-row blocks but the last, with about equal stored entries.
    m = indptr.size - 1
    # Integer targets: float ones would make searchsorted copy indptr.
    targets = np.arange(1, shares) * indptr[-1] // shares
    cuts = np.rint(np.searchsorted(indptr, targets) / step).astype(np.int64) * step
    return [0, *sorted({c for c in cuts.tolist() if 0 < c < m}), m]


def frobenius_norm(A: MatrixRef) -> float:
    return math.sqrt(_fro_squared(A))


def _fro_squared(A: MatrixRef) -> float:
    # Squares that overflow give inf, which callers read as a failed
    # screen or a breakdown, not a RuntimeWarning.
    values = _stored(A)
    with np.errstate(over="ignore"):
        return float(np.dot(values, values))


def _stored(A: MatrixRef) -> np.ndarray:
    # The values A stores, as a flat array: a view of every entry of a
    # dense A, the nnz stored values of a sparse one.
    if isinstance(A, DenseMatrix):
        return A.data.ravel(order="K")
    return A.sp.data


def _finite_fro2(A: MatrixRef, nonnegative: bool = False) -> float:
    """``|A|^2``, after checking that ``A`` holds only finite values and,
    with ``nonnegative``, no negative one.

    The checks read the values as they are at the call, so an entry the
    caller writes into a held array after wrapping is caught too.  A sum of
    squares is finite only if every value is, so ``|A|^2`` screens them
    without the mask ``np.isfinite`` builds.  The exact scan runs only when
    the screen fails: on a NaN, an infinity, or squares that overflow,
    which it accepts.  The sign check is one pass over the stored values:
    every entry of a dense ``A``, the nnz stored ones of a sparse one.
    """
    values = _stored(A)
    fro2 = _fro_squared(A)
    kind = "dense" if isinstance(A, DenseMatrix) else "sparse"
    if not math.isfinite(fro2) and not np.isfinite(values).all():
        raise ValueError(f"{kind} matrix entries must be finite")
    if nonnegative and values.size and values.min() < 0.0:
        raise ValueError(f"{kind} matrix entries must be nonnegative")
    return fro2


def relative_residual(A: MatrixRef, U: DenseMatrix, V: DenseMatrix) -> float:
    """Frobenius norm of ``A - U V^T`` divided by the norm of ``A``, from
    :func:`_trace_residual`, so the low-rank product is never materialized.
    An ``A`` with a NaN or an infinite entry raises :class:`ValueError`,
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

