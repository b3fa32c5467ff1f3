import collections
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from arknls import matrix
from arknls.matrix import (
    _ROW_BLOCK,
    DenseMatrix,
    SparseMatrixCSR,
    SparseView,
    _run_shares,
    _sparse_at_times,
    at_times,
    frobenius_norm,
    gram,
    read_rows,
    relative_residual,
    transposed,
)
from arknls.solver import SolverConfig, fit, initialize, sweep
from arknls.synth import SynthSpec, gen_dense, gen_sparse


def triple_loop_atb(a, b):
    """Independent reference for A^T B, three explicit loops."""
    m, n = a.shape
    _, r = b.shape
    out = np.zeros((n, r))
    for i in range(n):
        for j in range(r):
            s = 0.0
            for t in range(m):
                s += a[t, i] * b[t, j]
            out[i, j] = s
    return out


def dense_row(A, i):
    """Row ``i`` of ``A`` from :func:`read_rows`, written into zeros as a
    repair writes it."""
    out = np.zeros(A.cols)
    slots, values = read_rows(A, [i])[i]
    out[slots] = values
    return out


def random_sparse(rng, m, n, density):
    mask = rng.random((m, n)) < density
    rows, cols = np.nonzero(mask)
    vals = rng.random(rows.size)
    return SparseMatrixCSR.from_coo(m, n, rows, cols, vals)


class TestGram:
    def test_identity_columns(self):
        u = DenseMatrix(np.eye(2))
        np.testing.assert_array_equal(gram(u).data, np.eye(2))

    def test_single_column(self):
        u = DenseMatrix([[1.0], [2.0]])
        np.testing.assert_array_equal(gram(u).data, [[5.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(42)
        u = rng.random((50, 7))
        got = gram(DenseMatrix(u)).data
        want = triple_loop_atb(u, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.standard_normal((17, 9))
            g = gram(DenseMatrix(u)).data
            assert np.array_equal(g, g.T)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram(DenseMatrix(np.zeros((3, 0))))


class TestAtTimes:
    def test_zero_matrix(self):
        a = DenseMatrix(np.zeros((3, 2)))
        u = DenseMatrix(np.ones((3, 4)))
        np.testing.assert_array_equal(at_times(a, u).data, np.zeros((2, 4)))

    def test_identity(self):
        rng = np.random.default_rng(0)
        u = rng.random((3, 2))
        got = at_times(DenseMatrix(np.eye(3)), DenseMatrix(u)).data
        np.testing.assert_allclose(got, u, rtol=0, atol=0)

    def test_sparse_matches_densified(self):
        rng = np.random.default_rng(1)
        a = random_sparse(rng, 40, 30, 0.1)
        u = rng.random((40, 5))
        got = at_times(a, DenseMatrix(u)).data
        want = triple_loop_atb(a.to_dense().data, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(want)))

    @pytest.mark.parametrize("layout", ["column_major", "row_major", "transposed_view"])
    def test_dense_matches_triple_loop(self, layout):
        rng = np.random.default_rng(5)
        arr = rng.random((37, 23))
        a = DenseMatrix(arr if layout == "row_major" else np.asfortranarray(arr))
        if layout == "transposed_view":
            a = transposed(a)
        u = rng.random((a.rows, 6))
        got = at_times(a, DenseMatrix(u)).data
        want = triple_loop_atb(a.data, u)
        assert got.flags.f_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            at_times(DenseMatrix(np.ones((3, 2))), DenseMatrix(np.ones((4, 2))))

    def test_sparse_peak_memory_scales_with_factors(self):
        # The kernels read the stored entries in place: the peak is the
        # O((m + n) r) operands and result, never an nnz x r temporary.
        rng = np.random.default_rng(12)
        m, n, r = 600, 400, 8
        a = random_sparse(rng, m, n, 0.25)
        u = DenseMatrix(rng.random((m, r)))
        v = DenseMatrix(rng.random((n, r)))
        a_t = transposed(a)
        for left, right in ((a, u), (a_t, v)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                at_times(left, right)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 8 * (m + n) * r < 8 * a.nnz * r


def holed_sparse():
    """A planted rank-3 120 x 80 CSR matrix with two zero rows and two
    zero columns: fitted at rank 30, columns of the start die and the
    halves repair them."""
    spec = SynthSpec(m=120, n=80, true_rank=3, noise_std=0.05, seed=6)
    d = gen_dense(spec).data.copy()
    d[[4, 17], :] = 0.0
    d[:, [0, 11]] = 0.0
    i, j = np.nonzero(d)
    return SparseMatrixCSR.from_coo(120, 80, i, j, d[i, j])


def no_floors(monkeypatch):
    """Split every sparse product as far as the worker count allows."""
    for name in ("_SHARE_FLOOR", "_BLOCK_FLOOR", "_SHARE_COLUMNS"):
        monkeypatch.setattr(matrix, name, 1)


def record_shares(monkeypatch) -> list:
    """The number of shares of every split :func:`_run_shares` runs."""
    counts, run = [], matrix._run_shares

    def recorded(task, shares):
        counts.append(len(shares))
        return run(task, shares)

    monkeypatch.setattr(matrix, "_run_shares", recorded)
    return counts


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers={w}")
def workers(request, monkeypatch):
    monkeypatch.setattr(matrix, "_worker_count", lambda: request.param)
    return request.param


class TestSparseProduct:
    """The sparse product is bitwise scipy's ``A.sp.T @ u``, Fortran-ordered,
    at any worker count.

    On the transposed view the operand is CSR and the product runs
    ``scipy.sparse._sparsetools.csr_matvecs`` block by block of rows; on
    the CSR matrix it is CSC, and a split product runs ``csc_matvecs`` on
    ranges of columns.  A change of either private kernel's signature or
    arithmetic fails here.
    """

    # Rows of the CSR operand (the original matrix): two full blocks and
    # a partial one, and a single partial block.
    ROWS = (2 * _ROW_BLOCK + 37, _ROW_BLOCK - 5)

    def matrix(self, m, n=70, density=0.1, seed=0):
        # Every seventh row is empty.
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < density
        mask[::7] = False
        rows, cols = np.nonzero(mask)
        return SparseMatrixCSR.from_coo(m, n, rows, cols, rng.random(rows.size))

    def check(self, A, u):
        got = at_times(A, DenseMatrix(u)).data
        want = A.sp.T @ u
        assert got.flags.f_contiguous
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("r", [1, 20])
    @pytest.mark.parametrize("m", ROWS)
    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_matches_scipy_bitwise(self, view, m, r, order):
        A = self.matrix(m)
        if view == "transposed":
            A = transposed(A)
        assert A.sp.T.format == ("csc" if view == "csr" else "csr")
        u = np.random.default_rng(1).random((A.rows, r))
        self.check(A, np.require(u, requirements=order))

    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_no_entries(self, view):
        A = SparseMatrixCSR(_ROW_BLOCK + 3, 40, np.zeros(_ROW_BLOCK + 4, int), [], [])
        if view == "transposed":
            A = transposed(A)
        u = np.random.default_rng(2).random((A.rows, 6))
        got = self.check(A, u)
        assert not got.any()

    @pytest.mark.parametrize("dead", [[3], [0, 4, 5], [1, 2, 3, 4, 5], list(range(6))])
    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_column_subset(self, view, dead):
        # The solver's product on the live columns, the dead ones left
        # zero, equals scipy's product on the live columns, and a view
        # of the live columns gives the same through at_times.
        A = self.matrix(self.ROWS[0])
        if view == "transposed":
            A = transposed(A)
        u = np.asfortranarray(np.random.default_rng(3).random((A.rows, 6)))
        live = np.setdiff1d(np.arange(6), dead)
        u[:, dead] = 0.0
        got = _sparse_at_times(A, u, live)
        assert got.flags.f_contiguous
        assert np.array_equal(got[:, live], A.sp.T @ u[:, live])
        assert not got[:, dead].any()
        if live.size:
            subset = at_times(A, DenseMatrix._view(u[:, live])).data
            assert np.array_equal(subset, got[:, live])

    def test_one_live_column_takes_the_kernel(self, monkeypatch):
        # A single live column of a CSR operand runs the blocked kernel,
        # once per block of rows, and gives scipy's bits.
        A = transposed(self.matrix(self.ROWS[0]))
        u = np.asfortranarray(np.random.default_rng(6).random((A.rows, 4)))
        live = np.array([2])
        want = A.sp.T @ u[:, live]
        kernel, calls = matrix._sparsetools.csr_matvecs, []
        monkeypatch.setattr(
            matrix._sparsetools,
            "csr_matvecs",
            lambda *args: calls.append(args[2]) or kernel(*args),
        )
        got = _sparse_at_times(A, u, live)
        assert calls == [1, 1, 1]  # one column, three blocks of rows
        assert got.flags.f_contiguous
        assert got[:, live].tobytes() == want.tobytes()
        assert not got[:, [0, 1, 3]].any()

    @pytest.mark.parametrize("live", ["all", "every_other"])
    @pytest.mark.parametrize("r", [1, 2, 7, 13, 20])
    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_split_matches_scipy_bitwise(self, view, r, live, workers, monkeypatch):
        # With the floors at 1 the CSR operand splits into one row range
        # per worker and the CSC operand into one column range per worker
        # or per live column, whichever is fewer.
        no_floors(monkeypatch)
        shares = record_shares(monkeypatch)
        A = self.matrix(self.ROWS[0])
        if view == "transposed":
            A = transposed(A)
        u = np.asfortranarray(np.random.default_rng(r).random((A.rows, r)))
        cols = np.arange(r) if live == "all" else np.arange(0, r, 2)
        u[:, np.setdiff1d(np.arange(r), cols)] = 0.0
        want = A.sp.T @ u[:, cols]
        got = _sparse_at_times(A, u, None if live == "all" else cols)
        assert got.flags.f_contiguous
        assert got[:, cols].tobytes() == want.tobytes()
        assert not np.delete(got, cols, axis=1).any()
        if live == "all":
            assert at_times(A, DenseMatrix(u)).data.tobytes() == got.tobytes()
        if A.sp.T.format == "csr":
            assert set(shares) == {workers}
        else:
            split = min(workers, cols.size)
            assert set(shares) == ({split} if split > 1 else set())

    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_small_product_runs_unsplit(self, view, workers, monkeypatch):
        # Below the floors a product takes the calling thread alone: the
        # CSR loop in one share, the CSC operand in scipy's operator.
        shares = record_shares(monkeypatch)
        A = self.matrix(self.ROWS[0])
        if view == "transposed":
            A = transposed(A)
        assert A.nnz * 20 < 2 * matrix._SHARE_FLOOR
        self.check(A, np.random.default_rng(7).random((A.rows, 20)))
        assert shares == ([1] if view == "transposed" else [])

    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_large_product_splits(self, view, workers, monkeypatch):
        # 3000 x 1200 at density 0.05 and r = 20 is above every floor at
        # three workers: the product splits with the module's floors.
        shares = record_shares(monkeypatch)
        A = self.matrix(3000, n=1200, density=0.05)
        if view == "transposed":
            A = transposed(A)
        self.check(A, np.random.default_rng(8).random((A.rows, 20)))
        assert max(shares, default=1) == workers

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("view", ["csr", "transposed"])
    @pytest.mark.parametrize("data", ["gen_sparse", "holed"])
    def test_fit_does_not_depend_on_workers(self, data, view, k, monkeypatch):
        # Every product split as far as 1, 2 and 3 workers allow.  The
        # holed input is fitted over rank, so repairs fire and products on
        # live column subsets run too.
        no_floors(monkeypatch)
        subsets = []
        product = matrix._sparse_at_times

        def recorded(A, u, live=None):
            subsets.append(live is not None)
            return product(A, u, live)

        monkeypatch.setattr("arknls.solver._sparse_at_times", recorded)
        if data == "holed":
            a, rank = holed_sparse(), 30
        else:
            spec = SynthSpec(m=300, n=200, true_rank=5, noise_std=0.01, sparsity=0.3, seed=8)
            a, rank = gen_sparse(spec), 20
        if view == "transposed":
            a = transposed(a)
        cfg = SolverConfig(rank=rank, k=k, max_sweeps=15, seed=1)
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(matrix, "_worker_count", lambda count=count: count)
            runs.append(fit(a, cfg))
        (f1, t1), rest = runs[0], runs[1:]
        if data == "holed":
            assert t1.repair_events > 0 and any(subsets)
        for f, t in rest:
            assert f.U.data.tobytes() == f1.U.data.tobytes()
            assert f.V.data.tobytes() == f1.V.data.tobytes()
            assert t.rel_residual == t1.rel_residual
            assert t.repair_events == t1.repair_events

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork start method",
    )
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_fit_in_forked_child(self, monkeypatch):
        # A child forked after the pool exists has none of the pool's
        # threads: it must start its own rather than wait on the old one.
        no_floors(monkeypatch)
        monkeypatch.setattr(matrix, "_worker_count", lambda: 2)
        a = gen_sparse(SynthSpec(m=200, n=120, true_rank=4, sparsity=0.3, seed=2))
        cfg = SolverConfig(rank=8, k=2, max_sweeps=5, seed=3)
        f, t = fit(a, cfg)
        assert matrix._pool is not None
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child():
            fresh = matrix._pool is None
            g, s = fit(a, cfg)
            send.send((fresh, g.U.data.tobytes(), g.V.data.tobytes(), s.rel_residual))

        process = context.Process(target=child)
        process.start()
        try:
            assert receive.poll(60), "the forked child's fit did not finish"
            fresh, U, V, residuals = receive.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0
        assert fresh
        assert U == f.U.data.tobytes() and V == f.V.data.tobytes()
        assert residuals == t.rel_residual

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("value", [np.float32, np.int64, np.float64])
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_hand_built_view(self, fmt, value, index):
        # A SparseView over any scipy compressed array of real values gives
        # scipy's own product, in float64.
        A = self.matrix(self.ROWS[0])
        held = A.sp if fmt == "csr" else A.sp.T
        sp = type(held)(
            (
                (held.data * 8).astype(value),
                held.indices.astype(index),
                held.indptr.astype(index),
            ),
            shape=held.shape,
        )
        assert sp.format == fmt and sp.indices.dtype == index
        view = SparseView(sp)
        u = np.random.default_rng(4).random((view.rows, 5))
        self.check(view, u)


class TestRunShares:
    def test_results_in_order(self, workers):
        assert _run_shares(lambda s: s * s, list(range(7))) == [
            s * s for s in range(7)
        ]

    def test_shares_run_at_once(self, monkeypatch):
        # Each share waits for the other, so they must run on two threads.
        monkeypatch.setattr(matrix, "_worker_count", lambda: 2)
        both = threading.Barrier(2, timeout=10)
        threads = _run_shares(lambda s: (both.wait(), threading.current_thread())[1], [0, 1])
        assert threads[0] is not threads[1]
        assert threading.current_thread() in threads

    def test_every_share_runs_once_under_stress(self, monkeypatch):
        # More threads than cores and a short switch interval, so the
        # threads interleave inside the taking of shares; a share taken
        # twice or never would show in the counts.
        pool = ThreadPoolExecutor(8)
        monkeypatch.setattr(matrix, "_pool", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                runs = collections.Counter()

                def task(share):
                    runs[share] += 1
                    return share

                assert _run_shares(task, list(range(50))) == list(range(50))
                assert runs == collections.Counter(range(50))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_single_share_never_starts_the_pool(self, monkeypatch):
        monkeypatch.setattr(matrix, "_pool", None)
        assert _run_shares(lambda s: threading.current_thread(), [0]) == [
            threading.current_thread()
        ]
        assert matrix._pool is None

    def test_caller_takes_every_share_the_pool_does_not(self, monkeypatch):
        # With the pool's thread busy, the caller runs all the shares and
        # returns without waiting for it.
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(matrix, "_pool", pool)
        release = threading.Event()
        busy = pool.submit(release.wait, 10)
        try:
            caller = threading.current_thread()
            got = _run_shares(lambda s: threading.current_thread() is caller, [0, 1, 2])
            assert got == [True, True, True]
            assert not busy.done()
        finally:
            release.set()
            pool.shutdown()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_exception_raised_once_no_share_runs(self, failing, monkeypatch):
        # Shares write into one result, so none may still run when the
        # error reaches the caller, and none may start after it.
        monkeypatch.setattr(matrix, "_worker_count", lambda: 3)
        running, started = set(), []

        def task(share):
            running.add(share)
            started.append(share)
            time.sleep(0.02)
            running.discard(share)
            if share == failing:
                raise KeyError(share)

        with pytest.raises(KeyError):
            _run_shares(task, list(range(6)))
        assert not running
        count = len(started)
        time.sleep(0.1)
        assert len(started) == count < 6

    def test_worker_count_is_the_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert matrix._worker_count() == len(os.sched_getaffinity(0))
        else:
            assert matrix._worker_count() == (os.cpu_count() or 1)


class TestRelativeResidual:
    def test_zero_factors(self):
        a = DenseMatrix(np.ones((3, 2)))
        u = DenseMatrix(np.zeros((3, 2)))
        v = DenseMatrix(np.zeros((2, 2)))
        assert relative_residual(a, u, v) == 1.0

    def test_exact_factorization(self):
        u = DenseMatrix([[1.0], [2.0]])
        v = DenseMatrix([[3.0], [4.0]])
        a = DenseMatrix(u.data @ v.data.T)
        assert relative_residual(a, u, v) <= 1e-12

    def test_matches_direct(self):
        rng = np.random.default_rng(5)
        a = rng.random((30, 20))
        u = rng.random((30, 4))
        v = rng.random((20, 4))
        got = relative_residual(DenseMatrix(a), DenseMatrix(u), DenseMatrix(v))
        want = np.linalg.norm(a - u @ v.T) / np.linalg.norm(a)
        assert abs(got - want) <= 1e-10 * want

    def test_trace_identity_property(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = int(rng.integers(2, 100))
            n = int(rng.integers(2, 100))
            r = int(rng.integers(1, 21))
            a = rng.random((m, n))
            u = rng.random((m, r))
            v = rng.random((n, r))
            got = relative_residual(DenseMatrix(a), DenseMatrix(u), DenseMatrix(v))
            want = np.linalg.norm(a - u @ v.T) / np.linalg.norm(a)
            assert abs(got - want) <= 1e-10 * (1 + want)

    def test_zero_matrix_rejected(self):
        a = DenseMatrix(np.zeros((2, 2)))
        u = DenseMatrix(np.ones((2, 1)))
        v = DenseMatrix(np.ones((2, 1)))
        with pytest.raises(ValueError):
            relative_residual(a, u, v)

    def test_numerical_breakdown_raises(self):
        # |A|^2 overflows, so the trace identity's radicand is inf - inf.
        rng = np.random.default_rng(11)
        a = DenseMatrix(rng.random((30, 20)) * 1e160)
        u = DenseMatrix(rng.random((30, 4)) * 1e160)
        v = DenseMatrix(rng.random((20, 4)))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            relative_residual(a, u, v)


class TestContainers:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["C", "F", "list"])
    def test_dense_rejects_nonfinite(self, value, order):
        # Wrapping reads no values; the functions that need finite input
        # check it where they read the matrix.
        arr = np.random.default_rng(11).random((7, 5))
        factors = initialize(DenseMatrix(arr.copy()), 2, 0, k=1)
        arr[4, 3] = value
        given = arr.tolist() if order == "list" else arr.copy(order=order)
        a = DenseMatrix(given)
        np.testing.assert_array_equal(a.data, arr)
        message = "^dense matrix entries must be finite$"
        with pytest.raises(ValueError, match=message):
            fit(a, SolverConfig(rank=2, k=1))
        for direction in ("V", "U"):
            with pytest.raises(ValueError, match=message):
                sweep(a, factors, direction)
        with pytest.raises(ValueError, match=message):
            relative_residual(a, factors.U, factors.V)

    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "must be finite"), (-1.0, "must be nonnegative")],
        ids=["nan", "negative"],
    )
    def test_dense_checked_after_wrapping(self, value, message):
        # The matrix shares the caller's array, so an entry written after
        # wrapping is read by the next call.
        arr = np.random.default_rng(12).random((7, 5))
        a = DenseMatrix(arr)
        factors = initialize(a, 2, 0, k=1)
        arr[2, 1] = value
        with pytest.raises(ValueError, match=message):
            fit(a, SolverConfig(rank=2, k=1))
        for direction in ("V", "U"):
            with pytest.raises(ValueError, match=message):
                sweep(a, factors, direction)

    def test_dense_accepts_entries_whose_squares_overflow(self):
        # |A|^2, the finiteness screen, overflows here; the exact scan
        # behind it must accept the entry.  What stops the fit is the
        # overflowed |A|^2 itself, as a numerical breakdown.
        arr = np.ones((4, 3))
        arr[2, 1] = 1e200
        a = DenseMatrix(arr)
        factors = initialize(DenseMatrix(np.ones((4, 3))), 1, 0, k=1)
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="numerical breakdown"):
                fit(a, SolverConfig(rank=1, k=1))
            with pytest.raises(FloatingPointError, match="numerical breakdown"):
                relative_residual(a, factors.U, factors.V)

    def test_squares_overflow_without_a_warning(self):
        # No errstate here: the suite turns RuntimeWarnings into errors, so
        # an overflow warning from |A|^2 would reach the caller in place
        # of the breakdown.
        factors = initialize(DenseMatrix(np.ones((4, 3))), 1, 0, k=1)
        dense = DenseMatrix(np.full((4, 3), 1e200))
        rows, cols = np.nonzero(np.ones((4, 3)))
        sparse = SparseMatrixCSR.from_coo(4, 3, rows, cols, np.full(12, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (dense, sparse):
                assert frobenius_norm(a) == math.inf
                with pytest.raises(FloatingPointError, match="numerical breakdown"):
                    relative_residual(a, factors.U, factors.V)

    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "finite"), (np.inf, "finite"), (-5.0, "nonnegative")],
        ids=["nan", "inf", "negative"],
    )
    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_sparse_checked_where_read(self, view, value, message):
        # The CSR matrix holds its values uncopied, so a value written
        # after construction is read by the next call, through the
        # transposed view too.  relative_residual checks finiteness only,
        # as for a dense matrix.
        a = random_sparse(np.random.default_rng(13), 9, 6, 0.5)
        A = a if view == "csr" else transposed(a)
        factors = initialize(A, 2, 0, k=1)
        a.values[3] = value
        pattern = f"^sparse matrix entries must be {message}$"
        with pytest.raises(ValueError, match=pattern):
            fit(A, SolverConfig(rank=2, k=1))
        for direction in ("V", "U"):
            with pytest.raises(ValueError, match=pattern):
                sweep(A, factors, direction)
        if message == "finite":
            with pytest.raises(ValueError, match=pattern):
                relative_residual(A, factors.U, factors.V)
        else:
            assert math.isfinite(relative_residual(A, factors.U, factors.V))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_holds_contiguous_float64(self, order):
        arr = np.random.default_rng(9).random((5, 3)).copy(order=order)
        a = DenseMatrix(arr)
        assert np.shares_memory(a.data, arr)
        assert np.shares_memory(transposed(a).data, arr)
        arr[1, 2] = 7.0
        assert a.data[1, 2] == transposed(a).data[2, 1] == 7.0

    @pytest.mark.parametrize("name", ["strided", "float32", "int64", "list"])
    def test_dense_copies_other_input(self, name):
        base = np.random.default_rng(9).random((6, 4))
        given = {
            "strided": base[::2, :],
            "float32": base.astype(np.float32),
            "int64": (10 * base).astype(np.int64),
            "list": base.tolist(),
        }[name]
        a = DenseMatrix(given)
        assert a.data.dtype == np.float64 and a.data.flags.f_contiguous
        np.testing.assert_array_equal(a.data, np.asarray(given, dtype=np.float64))
        assert not np.shares_memory(a.data, base)
        assert not np.shares_memory(a.data, given)

    def test_wrapping_c_ordered_array_copies_nothing(self):
        # Wrapping neither copies the array nor builds a one-byte-per-entry
        # mask (nbytes / 8) over it.
        arr = np.random.default_rng(10).random((400, 300))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            DenseMatrix(arr)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes / 64

    def test_csr_validation(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 1], [0], [1.0])  # offsets wrong length
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 2, 2], [1, 0], [1.0, 1.0])  # unsorted row
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 1, 2], [0, 5], [1.0, 1.0])  # col range
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 1, 2], [0, 1], [1.0, -1.0])  # negative

    @pytest.mark.parametrize(
        "rows, cols, offsets, indices, values",
        [
            pytest.param(-1, 2, [0], [], [], id="negative-rows"),
            pytest.param(1, -2, [0, 0], [], [], id="negative-cols"),
            pytest.param(2, 2, [1, 1, 1], [0], [1.0], id="offsets-not-from-0"),
            pytest.param(2, 2, [0, 1, 1], [0, 1], [1.0, 2.0], id="offsets-end-early"),
            pytest.param(2, 2, [0, 1, 3], [0, 1], [1.0, 2.0], id="offsets-end-late"),
            pytest.param(
                3, 2, [0, 2, 1, 3], [0, 1, 0], [1.0, 2.0, 3.0], id="offsets-decrease"
            ),
            pytest.param(2, 2, [0, 1, 0], [], [], id="offsets-decrease-empty"),
            pytest.param(2, 2, [0, 1, 1], [0, 1], [1.0], id="more-indices"),
            pytest.param(2, 2, [0, 1, 2], [0], [1.0, 2.0], id="more-values"),
            pytest.param(2, 2, [0, 2, 2], [1, 1], [1.0, 2.0], id="duplicate-column"),
            pytest.param(2, 2, [0, 1, 1], [-1], [1.0], id="negative-column"),
            pytest.param(2, 2, [0, 1, 1], [0], [np.nan], id="nan-value"),
            pytest.param(2, 2, [0, 1, 1], [0], [np.inf], id="inf-value"),
        ],
    )
    def test_csr_rejects(self, rows, cols, offsets, indices, values):
        with pytest.raises(ValueError):
            SparseMatrixCSR(rows, cols, offsets, indices, values)

    @pytest.mark.parametrize("offsets", [[0, 1, 0], [0, 10**9, 0], [0, -1, 0]])
    def test_offsets_of_empty_matrix_checked(self, offsets):
        # scipy's full check skips the offsets when there are no entries,
        # and its canonical-format scan would read past the empty indices.
        with pytest.raises(ValueError, match="^row_offsets must be nondecreasing"):
            SparseMatrixCSR(2, 2, offsets, [], [])

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2.5, 2, [0, 1, 1], [0], [1.0]), "rows"),
            ((2, 2.0, [0, 1, 1], [0], [1.0]), "cols"),
            ((2, True, [0, 1, 1], [0], [1.0]), "cols"),
            ((2, 2, [0.0, 1.0, 1.0], [0], [1.0]), "row_offsets"),
            ((2, 2, [0, 1, 1], [0.9], [1.0]), "col_indices"),
            ((2, 2, [0, 1, 1], [False], [1.0]), "col_indices"),
        ],
    )
    def test_csr_rejects_non_integers(self, args, name):
        # scipy would truncate each of these without a word.
        with pytest.raises(ValueError, match=f"^{name} must"):
            SparseMatrixCSR(*args)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2.5, 2, [0], [0], [1.0]), "rows"),
            ((2, np.float64(2.0), [0], [0], [1.0]), "cols"),
            ((2, 2, [True], [0], [1.0]), "row_idx"),
            ((2, 2, [1], [0.9], [1.0]), "col_idx"),
            ((2, 2, np.array([1.0]), [0], [1.0]), "row_idx"),
        ],
    )
    def test_from_coo_rejects_non_integers(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            SparseMatrixCSR.from_coo(*args)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_integer_index_arrays_accepted(self, dtype):
        want = [[0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 3.0]]
        s = SparseMatrixCSR(
            np.int64(3),
            np.int32(3),
            np.array([0, 1, 1, 3], dtype=dtype),
            np.array([1, 0, 2], dtype=dtype),
            [1.5, 2.0, 3.0],
        )
        np.testing.assert_array_equal(s.to_dense().data, want)
        c = SparseMatrixCSR.from_coo(
            3, 3, np.array([2, 0, 2], dtype=dtype), np.array([2, 1, 0], dtype=dtype),
            [3.0, 1.5, 2.0],
        )
        np.testing.assert_array_equal(c.to_dense().data, want)

    def test_empty_index_lists_accepted(self):
        for s in (
            SparseMatrixCSR(2, 3, [0, 0, 0], [], []),
            SparseMatrixCSR.from_coo(2, 3, [], [], []),
        ):
            assert s.shape == (2, 3) and s.nnz == 0
            assert s.row_offsets.dtype.kind == s.col_indices.dtype.kind == "i"

    def test_from_coo_sums_duplicates(self):
        s = SparseMatrixCSR.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense().data, [[0.0, 3.5], [4.0, 0.0]])

    @pytest.mark.parametrize(
        "order", ["sorted", "shuffled", "duplicated", "triplicated"]
    )
    def test_from_coo_any_order(self, order):
        # Values are multiples of 1/16, also once split, so every summation
        # order is exact and the expected arrays are independent of how
        # duplicates add.
        rng = np.random.default_rng(9)
        m, n = 30, 20
        rows, cols = np.nonzero(rng.random((m, n)) < 0.2)
        vals = rng.integers(1, 40, rows.size) / 4.0
        want_offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        want = (want_offsets, cols.copy(), vals.copy())
        if order == "shuffled":
            perm = rng.permutation(rows.size)
            rows, cols, vals = rows[perm], cols[perm], vals[perm]
        elif order == "duplicated":
            # Split every entry into two halves, listed in reverse order.
            rows = np.concatenate((rows, rows))[::-1]
            cols = np.concatenate((cols, cols))[::-1]
            vals = np.concatenate((vals, vals))[::-1] / 2.0
        elif order == "triplicated":
            # Split every entry into v/2, v/4 and v/4, in shuffled order.
            perm = rng.permutation(3 * rows.size)
            rows = np.tile(rows, 3)[perm]
            cols = np.tile(cols, 3)[perm]
            vals = np.concatenate((vals / 2.0, vals / 4.0, vals / 4.0))[perm]
        s = SparseMatrixCSR.from_coo(m, n, rows, cols, vals)
        got = (s.row_offsets, s.col_indices, s.values)
        for array, expected in zip(got, want):
            assert array.dtype == expected.dtype
            np.testing.assert_array_equal(array, expected)
        for array in got:
            for given in (rows, cols, vals):
                assert not np.shares_memory(array, given)

    def test_transposed_dense(self):
        rng = np.random.default_rng(4)
        a = DenseMatrix(rng.random((5, 3)))
        np.testing.assert_array_equal(transposed(a).data, a.data.T)

    def test_transposed_shares_storage(self):
        rng = np.random.default_rng(7)
        a = DenseMatrix(rng.random((5, 3)))
        assert np.shares_memory(transposed(a).data, a.data)
        s = random_sparse(rng, 9, 12, 0.3)
        s_t = transposed(s)
        assert s_t.shape == (12, 9) and s_t.nnz == s.nnz
        assert np.shares_memory(s_t.sp.data, s.values)
        assert np.shares_memory(s_t.sp.indices, s.col_indices)
        d = s.to_dense().data
        for j in range(12):
            np.testing.assert_array_equal(dense_row(s_t, j), d[:, j])
        u = rng.random((12, 4))
        np.testing.assert_allclose(
            at_times(s_t, DenseMatrix(u)).data, d @ u, rtol=1e-13, atol=0
        )

    def test_read_rows_single(self):
        rng = np.random.default_rng(6)
        s = random_sparse(rng, 8, 11, 0.2)
        d = s.to_dense().data
        for i in range(8):
            np.testing.assert_array_equal(dense_row(s, i), d[i])
        np.testing.assert_array_equal(dense_row(s.to_dense(), 3), d[3])

    @pytest.mark.parametrize(
        "name", ["empty-rows-and-cols", "nnz-zero", "full-first-last"]
    )
    def test_read_rows_edge_cases(self, name):
        # Rows 1 and 4 and columns 0 and 5 hold no stored entry; the first
        # and last index of both views are read.
        d = np.zeros((6, 7))
        if name == "empty-rows-and-cols":
            d[[0, 2, 3, 5]] = np.arange(1.0, 29.0).reshape(4, 7)
            d[:, [0, 5]] = 0.0
        elif name == "full-first-last":
            d[:] = np.arange(1.0, 43.0).reshape(6, 7)
        rows, cols = np.nonzero(d)
        s = SparseMatrixCSR.from_coo(6, 7, rows, cols, d[rows, cols])
        for A, ref in ((s, d), (transposed(s), d.T)):
            for i in range(A.rows):
                _, values = read_rows(A, [i])[i]
                # Fresh values, never the matrix's own storage.
                assert values.dtype == np.float64 and values.flags.owndata
                assert not np.signbit(values).any()
                np.testing.assert_array_equal(dense_row(A, i), ref[i])
            for bad in (-1, A.rows):
                with pytest.raises(IndexError):
                    read_rows(A, [bad])

    def test_read_rows_negative_zero_reads_as_zero(self):
        # scipy's densification turns a stored -0.0 into 0.0; so does
        # read_rows, on both views.
        s = SparseMatrixCSR(2, 3, [0, 2, 2], [0, 2], [-0.0, 1.0])
        for A in (s, transposed(s)):
            for i in range(A.rows):
                assert not np.signbit(read_rows(A, [i])[i][1]).any()
                assert not np.signbit(dense_row(A, i)).any()

    def test_read_rows(self):
        # One call returns every wanted row (repeats and any order allowed)
        # as distinct increasing slots with their values, on both views.
        rng = np.random.default_rng(9)
        s = random_sparse(rng, 14, 11, 0.25)
        d = s.to_dense().data
        for A, ref in ((s, d), (transposed(s), d.T), (s.to_dense(), d)):
            wanted = [A.rows - 1, 0, 3, 3, 7]
            got = read_rows(A, wanted)
            assert sorted(got) == [0, 3, 7, A.rows - 1]
            for i, (slots, values) in got.items():
                row = np.zeros(A.cols)
                row[slots] = values
                np.testing.assert_array_equal(row, ref[i])
                # The gather equals reading the row on its own.
                np.testing.assert_array_equal(row, dense_row(A, i))
                if isinstance(slots, np.ndarray):
                    assert np.all(np.diff(slots) > 0)
                    assert values.size == np.count_nonzero(ref[i])
            assert read_rows(A, []) == {}
            for bad in ([-1], [0, A.rows]):
                with pytest.raises(IndexError):
                    read_rows(A, bad)

    def test_read_rows_transposed_allocates_no_index_copy(self):
        # The U-side gather on a sparse-mtx-shaped input (10000 x 5000,
        # 1% dense) finds 17 columns in one pass over the nnz row indices
        # of the CSC view.  Its boolean table costs one byte per stored
        # entry; an nnz-length int64 array (8 bytes each) must not appear.
        rng = np.random.default_rng(10)
        m, n, nnz = 10000, 5000, 500_000
        s = SparseMatrixCSR.from_coo(
            m, n, rng.integers(0, m, nnz), rng.integers(0, n, nnz), rng.random(nnz)
        )
        s_t = transposed(s)
        wanted = list(range(0, 20 * 17, 20))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = read_rows(s_t, wanted)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * s.nnz
        for j in wanted:
            slots, values = got[j]
            col = s.sp[:, [j]].tocoo()
            np.testing.assert_array_equal(slots, col.row)
            np.testing.assert_array_equal(values, col.data)

    def test_frobenius_norm(self):
        rng = np.random.default_rng(8)
        a = rng.random((6, 7))
        assert frobenius_norm(DenseMatrix(a)) == pytest.approx(np.linalg.norm(a))
        s = random_sparse(rng, 10, 10, 0.3)
        assert frobenius_norm(s) == pytest.approx(
            np.linalg.norm(s.to_dense().data)
        )
