"""Dense and sparse matrix containers plus the few products the solver needs.

Everything is float64.  The data matrix is only read: a dense one is held
as given when it is already a C- or Fortran-contiguous float64 array, so
no transpose of it is ever materialized, and the factors and products,
whose columns the solver's hot loops read and write, are column-major.
The sparse container is standard CSR with sorted column indices,
restricted to nonnegative values since it only ever holds the data matrix
of a nonnegative factorization; its products run in scipy's compiled
sparse kernels on that storage, and scipy's format checks validate its
structure.  Every sparse product calls those kernels directly, the
private ``scipy.sparse._sparsetools.csr_matvecs`` and ``csc_matvecs``,
from one helper, ``_matvecs``: the CSR one so as to write its result
block by block into a column-major array, and both so as to hand a large
product's blocks out to whichever CPU the process may run on is free.
Each output entry gets the same operations in the same order as in
scipy's own operator, so the results do not depend on the worker count;
the tests pin both kernels bit for bit to that operator.  The same
workers run the one screen of a matrix's values, wherever they are read:
fixed-width chunks of the values, each a sum of squares and a minimum
taken while the chunk is in cache, with the sums added in order.  A large
dense product is BLAS calls on fixed-width ranges of columns, the same
shares at any worker count, taken by those workers while numpy's
OpenBLAS is held at one thread (``_one_blas_thread``), as it is for the
whole of a fit or a residual: the package, not BLAS, owns the threads.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
    reads no values: :func:`arknls.fit` and :func:`relative_residual`
    check them on every call, from the sum of squares they compute
    anyway, so an entry written after wrapping is checked too.  The other
    functions propagate a NaN as numpy does.  Every matrix the package
    computes (a product, a Gram matrix, a transposed view, a start's
    factors, a generated matrix) is built by this constructor too, from a
    contiguous ``float64`` array that it holds as it is.
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
    so the view copies nothing unless its values are not float64: the
    kernels write only into an array of the values' dtype, so such values
    are converted here once, as scipy's operator converts them.
    """

    __slots__ = ("sp",)

    def __init__(self, sp):
        self.sp = sp if sp.dtype == np.float64 else sp.astype(np.float64)

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
    checked here, and by the same screen again on every call of
    :func:`arknls.fit` (finite and nonnegative) and of
    :func:`relative_residual` (finite), which read them as they are
    then: a value written into held ``values`` later is caught too.
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
        if _screen(vals, nonnegative=True)[1]:
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

        Triples whose rows are nondecreasing and within ``[0, rows)``, as
        ``np.nonzero`` and :func:`arknls.write_matrix_market` give them,
        need no sort: row r's offset is the number of entries in the rows
        before it, found by one ``np.searchsorted`` of every r in the
        sorted rows, for the constructor to check with copies of the
        columns and values.  Where it refuses them (a repeated cell,
        columns out of order in a row, a bad value) or the rows' dtype
        does not cast safely to ``np.intp`` (uint64, or an empty list's
        float64), they go, as all others do, to scipy's COO to CSR
        conversion, which sorts and sums; both give the same arrays.  The
        result depends only on the input arrays, and it equals an in-order
        sum whenever no (row, column) pair occurs more than twice.  With
        three or more copies the last bit may depend on scipy's per-row
        sort, which is not stable.  The matrix never shares the caller's
        arrays.
        """
        _check_integers(rows=rows, cols=cols)
        ri = _index_array("row_idx", row_idx)
        ci = _index_array("col_idx", col_idx)
        # Both ends in range: scipy, not the search, meets a stray index.
        # Rows that do not cast safely to intp go to scipy too: the search
        # would compare uint64 rows with the int64 offsets as float64, and
        # an empty list holds float64.
        sorted_rows = ri.ndim == 1 and (ri[1:] >= ri[:-1]).all()
        if (
            sorted_rows
            and np.can_cast(ri.dtype, np.intp)
            and (ri[:1] >= 0).all()
            and (ri[-1:] < rows).all()
        ):
            try:
                offsets = np.searchsorted(ri, np.arange(rows + 1))
                vals = np.array(values, dtype=np.float64)
                return cls(rows, cols, offsets, ci.astype(np.int64), vals)
            except (TypeError, ValueError):
                pass
        coo = coo_array((values, (ri, ci)), shape=(rows, cols), dtype=np.float64)
        csr = coo.tocsr()
        return cls(rows, cols, csr.indptr, csr.indices, csr.data)

    def to_dense(self) -> DenseMatrix:
        """A new row-major :class:`DenseMatrix`, as scipy's ``toarray`` makes it."""
        return DenseMatrix(self.sp.toarray())


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


def _check_reals(optional: bool = False, **values) -> None:
    # True would pass as 1.0, and None or a string fails a comparison or
    # math.isfinite with a TypeError that names no field.  With
    # ``optional``, None passes.
    for name, value in values.items():
        if not (optional and value is None) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_seed(seed) -> None:
    # numpy's errors for a negative or float seed name no field.
    _check_integers(seed=seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")


# A SparseMatrixCSR is a SparseView; so is the transposed view of one.
MatrixRef = Union[DenseMatrix, SparseView]


def gram(U: DenseMatrix) -> DenseMatrix:
    """Gram matrix of the columns of ``U``, a Fortran-ordered r x r array.

    The result is symmetric exactly, not just up to rounding: numpy's
    matmul runs a matrix times its own transpose as BLAS ``syrk``, which
    computes one triangle, and copies it into the other, and its loop
    without BLAS forms the two products of each pair of entries alike.
    So the transpose of the row-major product holds the same values, and
    it is what is returned: a column-major view of the product, not a
    copy, whose columns the solver reads and patches in place.  An
    overflow gives infinity, a breakdown its callers raise on, not a warning.
    """
    if U.cols < 1:
        raise ValueError("gram requires at least one column")
    with np.errstate(over="ignore", invalid="ignore"):
        return DenseMatrix((U.data.T @ U.data).T)


def at_times(A: MatrixRef, U: DenseMatrix) -> DenseMatrix:
    """Product of the transpose of ``A`` (m x n) with ``U`` (m x r).

    Both paths read ``A``'s own storage and return a Fortran-ordered
    result.  Dense input runs as ``(U^T A)^T`` (:func:`_dense_at_times`),
    in shares of :data:`_DENSE_COLUMNS` columns of ``A`` once the product
    reaches :data:`_DENSE_FLOOR`.  Sparse input runs scipy's compiled
    kernels on the transpose view of ``A.sp``, which accumulate each
    scaled row of ``U`` into the output row given by the column index,
    rows in increasing order.  The result is bitwise ``A.sp.T @ U`` for any
    number of workers (:func:`_sparse_at_times`).  When that view is CSR
    (the U half's ``A V``) it is computed block by block of rows with
    ``scipy.sparse._sparsetools.csr_matvecs`` straight into the result, so
    the product holds only the result, a row-major copy of ``U`` and one
    block of rows, or smaller blocks that free workers take in turn.  When
    it is CSC (the V half) each share, one unless the product is split, is
    a range of ``U``'s columns, copied row-major, and ``csc_matvecs`` into
    its own row-major result, which is copied into the result once the
    copies of ``U`` are freed; the product then holds what scipy's
    operator does.  Every column of ``U`` is multiplied, all-zero ones
    too.
    """
    if isinstance(A, DenseMatrix):
        return DenseMatrix(_dense_at_times(A, U.data))
    return DenseMatrix(_sparse_at_times(A, U.data))


def _check_rows(A: MatrixRef, u: np.ndarray) -> None:
    if A.rows != u.shape[0]:
        raise ValueError(
            f"dimension mismatch: A has {A.rows} rows, U has {u.shape[0]}"
        )


# Rows of a CSR product computed at a time by _sparse_at_times.  Split
# between workers, its shares are blocks of 1/workers of this, so that the
# workers' row buffers add up to one block of this many rows.
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

# Values in each share of _screen, the last share taking what is left.  A
# constant, so that the shares, and with them |A|^2's bits, are the same
# however many workers take them.  A share's minimum reads the values its
# ddot has just brought into cache: 2^17 values are 1 MiB, half of a
# core's L2 on the machine measured.  There a dense-2k fit's set-up took a
# median 3.27, 3.01, 3.12 and 3.45 ms with shares of 2^16 to 2^19 values,
# against 3.91 ms with two whole-array passes (10 alternating benchmark
# pairs).  _screen gives each worker at least two shares.  On two cores,
# two workers against one took 0.10 against 0.07 ms on 2^17 + 1000
# values, and less from 2^19 on.  Three shares were a draw: 0.17 against
# 0.14 ms on 2^18 + 1310 values, 0.18 against 0.25 ms on 3 * 2^17
# (medians of 400).
_SCREEN_CHUNK = 1 << 17

# Columns of A in each share of a dense product, the last share taking
# what is left.  A constant, so that the shares, and with them the
# product's bits, are the same however many workers take them.  Each
# share repacks u for BLAS: at one worker a dense-2k sweep (2000 x 2000,
# r = 30) took 5-6% longer than with one call per product at this width
# and 7-8% at 256; at two workers a dense-2k product took 0.56 times one
# call's time at this width and 0.62 at 256.  Products of 513 to 1023
# columns balance worse: 4000 x 600 at r = 20 took 0.86 times, against
# 0.67 at 256.
_DENSE_COLUMNS = 512

# Least work, in multiply-adds (m * n * r), for which a dense product runs
# as shares of _DENSE_COLUMNS columns; a smaller one is one BLAS call.  In
# two workers against one call, both at one BLAS thread, products of
# 2e6 took 0.98 to 1.25 times as long, of 3e6 0.80 to 1.00 times and of
# 4e6 to 6e6 0.79 to 0.98 times.
_DENSE_FLOOR = 1 << 22

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """Workers a product, the screen of a matrix's values, or mmio's
    guard of plain text, is split between: the CPUs this process
    may run on (its affinity mask, as ``taskset`` or a cgroup sets it), or
    the machine's count where the platform reports no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _after_fork() -> None:
    # A forked child has none of its parent's threads; it starts its own,
    # and a lock another thread held at the fork would never be released.
    # Of the BLAS holds it keeps the forking thread's, the only ones that
    # can end there; with none, it gets back the count the first one saved.
    global _pool, _pool_lock, _hold_lock, _holds
    _pool, _pool_lock, _hold_lock = None, threading.Lock(), threading.Lock()
    own = getattr(_depth, "holds", 0)
    if _holds and not own:
        _BLAS_THREADS[1](_callers_threads)
    _holds = own


def _openblas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    calls, or None where numpy calls another BLAS.

    numpy's wheels bundle OpenBLAS with the symbols suffixed ``64_``:
    ``scipy_openblas_*`` since numpy 2.0, ``openblas_*`` before.  They are
    looked up through numpy's own extension module, whose dependencies
    include the library, so the search finds the copy numpy calls.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, f"{prefix}_get_num_threads64_", None)
        put = getattr(lib, f"{prefix}_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


# Looked up at import, so that no fit pays for it, or allocates for it.
_BLAS_THREADS = _openblas_threads()
_hold_lock = threading.Lock()
_holds = 0
_depth = threading.local()  # .holds: those the calling thread has open
_callers_threads = 1

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the ``with`` block, which
    gets True, or, where there is no OpenBLAS to hold, run it as it is
    and give it False.

    :func:`arknls.fit`, :func:`relative_residual`, a dense
    :func:`at_times`, the screen of a matrix's values (:func:`_screen`)
    and :func:`frobenius_norm` run in a hold: their BLAS
    calls are the shares of this package's workers, which would otherwise
    compete with OpenBLAS's own threads for the same cores, and their bits
    then do not depend on the caller's thread count, nor do those of
    :func:`arknls.gen_dense`'s planted product, which holds it too.  The
    thread count is process-wide, so another thread's BLAS calls run at
    one thread too while any hold lasts.  Holds nest and may overlap
    between threads: the first to start saves the count found, and the
    last to end, on return or on an exception, restores it.  A child
    forked during a hold keeps the forking thread's holds alone.
    """
    global _holds, _callers_threads
    if _BLAS_THREADS is None:
        yield False
        return
    get, put = _BLAS_THREADS
    with _hold_lock:
        if not _holds:
            _callers_threads = get()
            put(1)
        _holds += 1
        _depth.holds = getattr(_depth, "holds", 0) + 1
    try:
        yield True
    finally:
        with _hold_lock:
            _holds -= 1
            _depth.holds -= 1
            if not _holds:
                put(_callers_threads)


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


def _run_shares(task, shares, workers: int) -> list:
    """``[task(s) for s in shares]``, run by the calling thread and by
    ``min(workers, len(shares)) - 1`` pool helpers, each thread taking the
    next share no thread has taken until none is left.  Once the caller
    finds none left it cancels the helpers and waits only for those the
    pool had started, so a pool slow to start them, or busy with another
    caller's shares, costs at worst the time of running every share on the
    calling thread.  Every share has finished when this returns or raises;
    the first exception a share raised is raised here, and no share is
    taken after it.  One share or one worker never touches the pool.
    """
    results = [None] * len(shares)
    errors = []
    pending = enumerate(shares)
    lock = threading.Lock()

    def take_shares():
        while True:
            with lock:
                if errors or (taken := next(pending, None)) is None:
                    return
            index, share = taken
            try:
                results[index] = task(share)
            except BaseException as error:
                with lock:
                    errors.append(error)

    helpers = [
        _executor().submit(take_shares)
        for _ in range(min(workers, len(shares)) - 1)
    ]
    take_shares()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    # A helper's work item outlives this call, in the pool's queue or in a
    # thread waiting for the GIL to drop it; emptied, its closure keeps
    # neither the task, with the arrays it writes, nor the results alive.
    done = results
    task = results = None
    if errors:
        raise errors[0]
    return done


def _dense_at_times(A: DenseMatrix, u: np.ndarray) -> np.ndarray:
    """``A^T u`` for dense ``A``, as a new Fortran-ordered array.

    It is computed as ``(u^T A)^T``, the thin factor on the left: BLAS
    then takes ``A`` as the wide operand of an r-row product, which
    OpenBLAS ran faster than ``A^T u`` on either memory order of ``A`` (a
    held array or the view :func:`transposed` returns), and the result is
    the row-major ``r x n`` product's transpose.  A product of
    :data:`_DENSE_FLOOR` multiply-adds or more is computed in shares of
    :data:`_DENSE_COLUMNS` columns of ``A``, each one BLAS call into its
    rows of the result, taken by :func:`_worker_count` workers in a
    hold of BLAS at one thread (:func:`_one_blas_thread`), or by the
    calling thread alone where there is no hold, so that BLAS's own
    threads are not run on top of the workers.  A smaller product is one
    call, in a hold too.  The shares depend on the shape alone, so the bits do not
    depend on the worker count.  They may differ from one call's in the
    last bits, where BLAS runs a narrow call through other kernels: with
    OpenBLAS 0.3.31's SkylakeX kernels at one thread they were the same on
    ``dense-2k``'s 2000 x 2000 shape at r = 30 and on most shapes whose
    last share has at least 1e6 multiply-adds, and differed in some rows
    of the last share on others (400 x 600 at r = 20, a last share of 88
    columns; 1037 x 1501 at r = 8).  The last bits also differed between
    the two memory orders of ``A`` on products under about 1e6
    multiply-adds.
    """
    _check_rows(A, u)
    a = A.data
    (m, n), r = a.shape, u.shape[1]
    out = np.empty((n, r), order="F")
    width = _DENSE_COLUMNS if m * n * r >= _DENSE_FLOOR else max(n, 1)

    def columns(lo):
        hi = lo + width
        np.matmul(u.T, a[:, lo:hi], out=out.T[:, lo:hi])

    with _one_blas_thread() as held:
        _run_shares(columns, range(0, n, width), _worker_count() if held else 1)
    return out


def _matvecs(sp, indptr, x: np.ndarray) -> np.ndarray:
    # ``sp @ x`` for the CSR or CSC ``sp`` and a row-major ``x``, as
    # scipy's operator computes it: the compiled kernel of ``sp.format``,
    # csr_matvecs or csc_matvecs, into a new zeroed row-major result.  For
    # CSR, ``indptr`` may be a slice ``sp.indptr[lo : hi + 1]`` of the
    # offsets, giving rows lo:hi.  The one call of scipy's private kernels.
    y = np.zeros((len(indptr) - 1 if sp.format == "csr" else sp.shape[0], x.shape[1]))
    getattr(_sparsetools, f"{sp.format}_matvecs")(
        y.shape[0],
        sp.shape[1],
        x.shape[1],
        indptr,
        sp.indices,
        sp.data,
        x.ravel(),
        y.ravel(),
    )
    return y


def _sparse_at_times(A: SparseView, u: np.ndarray) -> np.ndarray:
    """``A^T u`` for sparse ``A``, as a new Fortran-ordered array.

    Both compiled kernels scipy's operator calls accumulate each output
    entry on its own, over the stored entries in storage order, so a split
    of the work by output rows or by columns of ``u`` gives scipy's bits.
    Every share is one call of :func:`_matvecs`, the kernel of the view's
    format into a zeroed row-major array of the share's own.

    A product's shares are taken by at most :func:`_worker_count` workers,
    the calling thread and a pool (:func:`_run_shares`), and by no more
    workers than leave :data:`_SHARE_FLOOR` work to each,
    :data:`_BLOCK_FLOOR` in each CSR block of rows and
    :data:`_SHARE_COLUMNS` columns of ``u`` in each CSC share.  So a
    process that may run on one CPU, a small product, a CSC product on
    fewer than ``2 * _SHARE_COLUMNS`` columns (``r = 1`` among them) and a
    CSR one with few stored entries per row run on the calling thread.

    When ``A.sp.T`` is CSR (the U half's ``A V``), ``csr_matvecs`` reads
    one shared row-major copy of ``u``.  Each share is a block of
    :data:`_ROW_BLOCK` / workers rows (at least one), taken by whichever
    worker is free, so rows of uneven length are balanced as the product
    runs.  A block's buffer starts from zeros, as the operator's whole
    result does, and is copied into its rows of the result as it
    finishes.  So no m x r row-major result or Fortran copy of it is made,
    and the buffers live at once, one per worker, add up to one block of
    :data:`_ROW_BLOCK` rows.  The public form of the same loop,
    ``sp[start:stop] @ x``, gives the same bits, but each slice copies its
    block's indices and values: on ``sparse-mtx`` it made a sweep 40-70%
    slower and the peak 0.22 MB higher.

    When ``A.sp.T`` is CSC (the V half's ``A^T U``), whose kernel scatters
    each stored entry anywhere in the output, each share is a range of the
    columns of ``u``: one row-major copy of them and ``csc_matvecs`` into
    the share's buffer, as the operator computes it.  The result is
    allocated, and the buffers copied into it, once those copies are
    freed, so the product holds no more than scipy's operator, which is
    this path with one share.

    A ``u`` whose row count is not ``A.rows`` raises :class:`ValueError`
    first: the kernels check no sizes and would read past the end of a
    short ``u``.
    """
    _check_rows(A, u)
    sp = A.sp.T
    m, r = sp.shape[0], u.shape[1]
    work = sp.nnz * r
    if sp.format == "csr":
        cap = work * _ROW_BLOCK // (max(m, 1) * _BLOCK_FLOOR)
    else:
        cap = r // _SHARE_COLUMNS
    workers = max(1, min(_worker_count(), work // _SHARE_FLOOR, cap))
    if sp.format == "csr":
        step = max(_ROW_BLOCK // workers, 1)
        x = np.ascontiguousarray(u)
        out = np.empty((m, r), order="F")

        def rows(lo):
            hi = min(lo + step, m)
            out[lo:hi] = _matvecs(sp, sp.indptr[lo : hi + 1], x)

        _run_shares(rows, range(0, m, step), workers)
        return out
    ends = [r * s // workers for s in range(workers + 1)]
    parts = [slice(a, b) for a, b in zip(ends, ends[1:])]
    products = _run_shares(
        lambda part: _matvecs(sp, sp.indptr, np.ascontiguousarray(u[:, part])),
        parts,
        workers,
    )
    out = np.empty((m, r), order="F")
    for part, y in zip(parts, products):
        out[:, part] = y
    return out


def frobenius_norm(A: MatrixRef) -> float:
    """The Frobenius norm of ``A``, the square root of its sum of squares:
    of every entry of a dense ``A``, of the stored values of a sparse one.

    The sum is :func:`_screen`'s, so it has the bits of the ``|A|^2`` that
    :func:`arknls.fit` and :func:`relative_residual` use, at any worker or
    BLAS thread count.  Values are not checked: a NaN gives NaN, and
    squares that overflow give infinity.
    """
    return math.sqrt(_screen(_stored(A), nonnegative=False)[0])


def _fro_squared(values: np.ndarray) -> float:
    # Squares that overflow give inf, which callers read as a failed
    # screen or a breakdown, not a RuntimeWarning.
    with np.errstate(over="ignore"):
        return float(np.dot(values, values))


def _stored(A: MatrixRef) -> np.ndarray:
    # The values A stores, as a flat array: a view of every entry of a
    # dense A, the nnz stored values of a sparse one.
    if isinstance(A, DenseMatrix):
        return A.data.ravel(order="K")
    return A.sp.data


def _screen(values: np.ndarray, nonnegative: bool) -> tuple[float, Optional[str]]:
    """``(|values|^2, failed)`` for a flat array: ``failed`` is ``"finite"``
    on a NaN or an infinity, else, with ``nonnegative``, ``"nonnegative"``
    on a value below zero (-0.0 is not), else None.

    The one check of a matrix's values, by the CSR constructor, the Matrix
    Market reader's compiled tier, :func:`_finite_fro2` and
    :func:`frobenius_norm`.  It reads each value once, in shares of
    :data:`_SCREEN_CHUNK` values taken by up to :func:`_worker_count`
    workers, as many as get two shares each, or one
    (:func:`_run_shares`), while BLAS is held at one thread
    (:func:`_one_blas_thread`).  A share computes its values' sum of
    squares, BLAS's ``ddot``, and then, with ``nonnegative``, their minimum
    while they are still in cache.  A sum of squares is finite only if
    every value is, so a share runs the exact ``np.isfinite`` scan only
    when its sum is not: on a NaN, an infinity, or squares that overflow,
    which it accepts.  ``|values|^2`` is the sum of the shares' sums from
    left to right, and ``failed`` the first check any share failed, in the
    order above.  The shares depend on the size alone, so the bits do not
    depend on the worker or BLAS thread count; an array of at most one
    share has one ``ddot``'s bits.
    """
    width = _SCREEN_CHUNK

    def share(lo):
        chunk = values[lo : lo + width]
        fro2 = _fro_squared(chunk)
        if not math.isfinite(fro2) and not np.isfinite(chunk).all():
            return fro2, "finite"
        return fro2, "nonnegative" if nonnegative and chunk.min() < 0.0 else None

    starts = range(0, values.size, width)
    workers = max(1, min(_worker_count(), len(starts) // 2))
    with _one_blas_thread():
        shares = _run_shares(share, starts, workers)
    fro2 = 0.0  # summed left to right: sum() compensates from Python 3.12
    for part, _ in shares:
        fro2 += part
    failed = {fail for _, fail in shares}
    return fro2, next((f for f in ("finite", "nonnegative") if f in failed), None)


def _finite_fro2(A: MatrixRef, nonnegative: bool = False) -> float:
    """``|A|^2`` once :func:`_screen` has found every value of ``A`` at the
    call finite and, with ``nonnegative``, none negative: every entry of a
    dense ``A`` (an entry written into a held array after wrapping too),
    the nnz stored ones of a sparse one.  Valid values whose squares
    overflow raise :class:`FloatingPointError`: an infinite ``|A|^2``
    makes every objective non-finite, and the products would overflow
    first.
    """
    fro2, failed = _screen(_stored(A), nonnegative)
    if failed:
        kind = "dense" if isinstance(A, DenseMatrix) else "sparse"
        raise ValueError(f"{kind} matrix entries must be {failed}")
    if fro2 == math.inf:
        raise FloatingPointError("numerical breakdown: |A|^2 overflows")
    return fro2


def _reject_zero(A: MatrixRef, message: str) -> None:
    """Raise for an ``A`` whose ``|A|^2`` is 0: :class:`ValueError` with
    ``message`` if every value is zero, else :class:`FloatingPointError`,
    since the squares of its nonzero values underflow."""
    if _stored(A).any():
        raise FloatingPointError("numerical breakdown: |A|^2 underflows to 0")
    raise ValueError(message)


def relative_residual(A: MatrixRef, U: DenseMatrix, V: DenseMatrix) -> float:
    """Frobenius norm of ``A - U V^T`` divided by the norm of ``A``, from
    :func:`_trace_residual`, so the low-rank product is never materialized.
    An ``A`` with a NaN or an infinite entry raises :class:`ValueError`,
    as does an all-zero one; an ``|A|^2`` that over- or underflows and a
    non-finite residual raise :class:`FloatingPointError`.  It runs with
    numpy's OpenBLAS held at one thread (:func:`_one_blas_thread`).
    """
    _check_conform(A, U, V)
    with _one_blas_thread():
        a2 = _finite_fro2(A)
        if a2 == 0.0:
            _reject_zero(A, "relative residual undefined for an all-zero matrix")
        return math.sqrt(
            _trace_residual(a2, at_times(A, U).data, V, gram(U).data)[0] / a2
        )


def _check_conform(A: MatrixRef, U: DenseMatrix, V: DenseMatrix) -> None:
    if U.rows != A.rows or V.rows != A.cols or U.cols != V.cols:
        raise ValueError("factor dimensions do not conform with A")


def _trace_residual(fro2: float, H, X: DenseMatrix, M) -> tuple[float, np.ndarray]:
    """``|A - C X^T|^2 = |A|^2 - 2 <H, X> + <X^T X, M>`` from ``fro2 = |A|^2``,
    ``H = A^T C`` and ``M = C^T C``, clamped at zero (near an exact fit it
    can come out slightly negative), and ``X^T X`` from :func:`gram`.  A
    non-finite value, overflow included, raises :class:`FloatingPointError`.
    """
    # einsum sums the products without forming them, and its order does
    # not depend on the BLAS thread count as a ddot's may.
    with np.errstate(over="ignore", invalid="ignore"):
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
        return DenseMatrix(A.data.T)
    return SparseView(A.sp.T)


def read_rows(A: MatrixRef, rows) -> np.ndarray:
    """Rows ``rows`` of ``A``, in the order given, repeats kept, as the
    columns of a new Fortran-ordered ``A.cols x len(rows)`` array.

    On a transposed view row ``i`` is column ``i`` of the original matrix.
    This is the one read of ``A`` by rows: the start's rows and the rows a
    repair writes into a rebuilt product column.  Dense input is read with
    numpy's indexing, ``A.data[rows]``, and sparse input, the CSR matrix
    and its CSC transposed view alike, with scipy's,
    ``A.sp[rows].toarray()``, which reads a stored -0.0 as 0.0; either
    result is row-major, so its transpose holds each row contiguously.  A row
    outside ``[0, A.rows)`` raises :class:`IndexError`; neither library's
    wrap-around of negative indices applies.
    """
    rows = np.asarray(rows, dtype=np.int64)
    bad = rows[(rows < 0) | (rows >= A.rows)]
    if bad.size:
        raise IndexError(f"row {bad[0]} out of range for {A.rows}-row matrix")
    if isinstance(A, DenseMatrix):
        return A.data[rows].T
    return A.sp[rows].toarray(order="C").T
