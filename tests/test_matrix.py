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
from scipy.sparse import coo_array

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
from arknls.mmio import read_matrix_market, write_matrix_market
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
    """Row ``i`` of ``A`` from :func:`read_rows`, read on its own, as a
    repair reads a row its gather lacks."""
    return read_rows(A, [i])[:, 0]


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
        # numpy's matmul gives U^T U exactly symmetric, so gram equals the
        # product's upper triangle mirrored, bit for bit, on either memory
        # order of U and on one column.
        rng = np.random.default_rng(3)
        for _ in range(20):
            for r in (9, 1):
                for order in "CF":
                    u = np.asarray(rng.standard_normal((17, r)), order=order)
                    g = gram(DenseMatrix(u)).data
                    prod = u.T @ u
                    mirrored = np.triu(prod) + np.triu(prod, 1).T
                    assert g.tobytes() == np.asfortranarray(mirrored).tobytes()
                    assert np.array_equal(g, g.T)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram(DenseMatrix(np.zeros((3, 0))))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fortran_view_of_the_product(self, order):
        # The row-major product U^T U is exactly symmetric, so gram returns
        # its transpose: Fortran-ordered, the same values, and the
        # product's own memory, with no r x r copy at any point.
        r = 120
        u = np.asarray(np.random.default_rng(5).random((40, r)), order=order)
        U = DenseMatrix(u)
        g = gram(U).data
        assert g.flags.f_contiguous and not g.flags.owndata
        product = g.base
        assert product.shape == (r, r) and product.flags.c_contiguous
        assert product.flags.owndata
        assert np.array_equal(g, g.T)
        assert g.tobytes(order="F") == (u.T @ u).tobytes(order="C")
        tracemalloc.start()
        try:
            gram(U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r * r * 8 <= peak < 1.5 * r * r * 8


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
    return csr_of(d)


def csr_of(values: np.ndarray) -> SparseMatrixCSR:
    """The nonzero entries of a dense array as a CSR matrix."""
    i, j = np.nonzero(values)
    return SparseMatrixCSR.from_coo(*values.shape, i, j, values[i, j])


def no_floors(monkeypatch):
    """Split every product, and the screen of every A's values, as far as
    the worker count allows."""
    for name in (
        "_SHARE_FLOOR",
        "_BLOCK_FLOOR",
        "_SHARE_COLUMNS",
        "_SCREEN_FLOOR",
        "_DENSE_FLOOR",
    ):
        monkeypatch.setattr(matrix, name, 1)


def record_shares(monkeypatch, caller=None) -> list:
    """The number of threads that take the shares of every split
    :func:`_run_shares` runs, or, given ``caller``, of those whose task
    is defined in the function of that name."""
    counts, run = [], matrix._run_shares

    def recorded(task, shares, workers):
        if caller is None or task.__qualname__.startswith(f"{caller}."):
            counts.append(min(workers, len(shares)))
        return run(task, shares, workers)

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
    the CSR matrix it is CSC, and the product runs ``csc_matvecs`` on
    ranges of columns, one range unless it is split.  A change of either
    private kernel's signature or arithmetic fails here.
    """

    # Rows of the CSR operand (the original matrix): two full blocks and
    # a partial one, and a single partial block.
    ROWS = (2 * _ROW_BLOCK + 37, _ROW_BLOCK - 5)

    def matrix(self, m, n=70, density=0.1, seed=0):
        # Every seventh row is empty.  ``density`` may be a column of one
        # density per row.
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
        # Each output column depends only on its own column of u: where u
        # has all-zero (dead) columns, as the solver's factor does once
        # columns die, the product is exact zeros there, and its other
        # columns are scipy's product on those columns alone, which a
        # view of them through at_times gives too.
        A = self.matrix(self.ROWS[0])
        if view == "transposed":
            A = transposed(A)
        u = np.asfortranarray(np.random.default_rng(3).random((A.rows, 6)))
        live = np.setdiff1d(np.arange(6), dead)
        u[:, dead] = 0.0
        got = _sparse_at_times(A, u)
        assert got.flags.f_contiguous
        assert np.array_equal(got[:, live], A.sp.T @ u[:, live])
        assert not got[:, dead].any()
        if live.size:
            subset = at_times(A, DenseMatrix(u[:, live])).data
            assert np.array_equal(subset, got[:, live])

    @pytest.mark.parametrize("live", ["all", "every_other"])
    @pytest.mark.parametrize("r", [1, 2, 7, 13, 20])
    @pytest.mark.parametrize("view", ["csr", "transposed", "skewed"])
    def test_split_matches_scipy_bitwise(self, view, r, live, workers, monkeypatch):
        # With the floors at 1 every worker takes blocks of the CSR
        # operand's rows, and the CSC operand splits into one column range
        # per worker or per column, whichever is fewer.  Every other column
        # of u is all zero in the second case, as dead columns are in the
        # solver.  The skewed view is the transposed view of a matrix whose
        # row i holds about 70 / (i + 1) entries, so the first block of the
        # CSR operand's rows holds most of them.  The shares are recorded
        # from the product on, after the constructor's value screen.
        no_floors(monkeypatch)
        m = self.ROWS[0]
        density = 1.0 / np.arange(1, m + 1)[:, None] if view == "skewed" else 0.1
        A = self.matrix(m, density=density)
        if view != "csr":
            A = transposed(A)
        shares = record_shares(monkeypatch)
        u = np.asfortranarray(np.random.default_rng(r).random((A.rows, r)))
        if live == "every_other":
            u[:, 1::2] = 0.0
        want = A.sp.T @ u
        got = _sparse_at_times(A, u)
        assert got.flags.f_contiguous
        assert got.tobytes() == want.tobytes()
        if live == "every_other":
            assert not got[:, 1::2].any()
        assert at_times(A, DenseMatrix(u)).data.tobytes() == got.tobytes()
        if A.sp.T.format == "csr":
            assert set(shares) == {workers}
        else:
            assert set(shares) == {min(workers, r)}

    def test_more_workers_than_block_rows(self, monkeypatch):
        # Split between more workers than a block of _ROW_BLOCK rows has
        # rows, each share is one row.
        no_floors(monkeypatch)
        monkeypatch.setattr(matrix, "_ROW_BLOCK", 2)
        monkeypatch.setattr(matrix, "_worker_count", lambda: 3)
        A = transposed(self.matrix(self.ROWS[1]))
        shares = record_shares(monkeypatch)
        self.check(A, np.random.default_rng(9).random((A.rows, 5)))
        assert shares == [3]

    @pytest.mark.parametrize("view", ["csr", "transposed"])
    def test_small_product_runs_unsplit(self, view, workers, monkeypatch):
        # Below the floors a product runs as one share, which takes the
        # calling thread alone.
        A = self.matrix(self.ROWS[0])
        if view == "transposed":
            A = transposed(A)
        shares = record_shares(monkeypatch)
        assert A.nnz * 20 < 2 * matrix._SHARE_FLOOR
        self.check(A, np.random.default_rng(7).random((A.rows, 20)))
        assert shares == [1]

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
        # holed input is fitted over rank, so repairs fire on columns that
        # died.
        no_floors(monkeypatch)
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
            assert t1.repair_events > 0
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
        got = self.check(view, u)
        # The view holds float64 values, copied once unless they are
        # float64; the product is the operator's on the array as given.
        assert (view.sp is sp) == (value is np.float64)
        assert np.array_equal(got, sp.T @ u)


class TestDenseProduct:
    """From :data:`matrix._DENSE_FLOOR` multiply-adds on, the dense product
    runs in shares of :data:`matrix._DENSE_COLUMNS` columns of ``A``, the
    same shares at any worker count, so it has the same bits at each."""

    # Work 5.7e6, above the floor; 1300 columns make two full shares and
    # a ragged one of 276, the transposed view's 1100 two and one of 76.
    M, N, R = 1100, 1300, 4

    def operands(self, layout):
        rng = np.random.default_rng(21)
        arr = rng.random((self.M, self.N))
        a = DenseMatrix(np.asfortranarray(arr) if layout == "column_major" else arr)
        if layout == "transposed_view":
            a = transposed(a)
        return a, DenseMatrix(np.asfortranarray(rng.random((a.rows, self.R))))

    @pytest.mark.parametrize("layout", ["column_major", "row_major", "transposed_view"])
    def test_same_bits_at_every_worker_count(self, layout, monkeypatch):
        # The shares, the first columns of each, are the same at every
        # worker count, and so are the bits.
        a, u = self.operands(layout)
        assert a.rows * a.cols * self.R >= matrix._DENSE_FLOOR
        assert a.cols % matrix._DENSE_COLUMNS
        handed, run = [], matrix._run_shares

        def recorded(task, shares, workers):
            handed.append((list(shares), min(workers, len(shares))))
            return run(task, shares, workers)

        monkeypatch.setattr(matrix, "_run_shares", recorded)
        products = []
        for count in (1, 2, 3):
            monkeypatch.setattr(matrix, "_worker_count", lambda c=count: c)
            got = at_times(a, u).data
            assert got.flags.f_contiguous and got.shape == (a.cols, self.R)
            products.append(got.tobytes(order="F"))
        assert products[1] == products[0] and products[2] == products[0]
        want = triple_loop_atb(a.data, u.data)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        starts = list(range(0, a.cols, matrix._DENSE_COLUMNS))
        threads = [1, 2, 3] if matrix._BLAS_THREADS is not None else [1, 1, 1]
        assert handed == [(starts, count) for count in threads]

    def test_runs_on_one_worker_without_openblas(self, monkeypatch):
        # With no OpenBLAS to hold at one thread, BLAS runs at its own
        # thread count and the same shares take the calling thread alone.
        a, u = self.operands("row_major")
        monkeypatch.setattr(matrix, "_worker_count", lambda: 2)
        monkeypatch.setattr(matrix, "_BLAS_THREADS", None)
        shares = record_shares(monkeypatch, "_dense_at_times")
        got = at_times(a, u).data
        assert shares == [1]
        width = matrix._DENSE_COLUMNS
        for lo in range(0, a.cols, width):
            want = u.data.T @ a.data[:, lo : lo + width]
            assert got[lo : lo + width].T.tobytes() == want.tobytes()

    def test_small_product_is_one_call(self, monkeypatch):
        # Below the floor (3.6e6) a product on more columns than a share
        # holds is one share, one BLAS call, on the calling thread.
        rng = np.random.default_rng(22)
        a = DenseMatrix(rng.random((300, 600)))
        u = DenseMatrix(np.asfortranarray(rng.random((300, 20))))
        assert 300 * 600 * 20 < matrix._DENSE_FLOOR and 600 > matrix._DENSE_COLUMNS
        monkeypatch.setattr(matrix, "_worker_count", lambda: 2)
        shares = record_shares(monkeypatch)
        got = at_times(a, u).data
        assert shares == [1]
        with matrix._one_blas_thread():
            want = (u.data.T @ a.data).T
        assert got.tobytes(order="F") == want.tobytes(order="F")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fit_and_sweeps_do_not_depend_on_workers(self, k, monkeypatch):
        # Every dense product split into shares of 16 columns as far as
        # 1, 2 and 3 workers allow: 5 shares of A's 80 columns and 8 of
        # its 120 rows, the last of 8.  Fitted over rank, columns of the
        # start die and the halves repair them.  Then a V and a U sweep
        # from one start.
        no_floors(monkeypatch)
        monkeypatch.setattr(matrix, "_DENSE_COLUMNS", 16)
        a = holed_sparse().to_dense()
        cfg = SolverConfig(rank=30, k=k, max_sweeps=15, seed=1)
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(matrix, "_worker_count", lambda c=count: c)
            f, t = fit(a, cfg)
            start = initialize(a, 30, 5, k=k)
            pair = [sweep(a, start, side) for side in "VU"]
            runs.append((f.U.data, f.V.data, t.rel_residual, t.repair_events,
                         start.U.data, start.V.data, pair))
        assert runs[0][3] > 0
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == want.tobytes()
                else:
                    assert got == want


@pytest.mark.skipif(matrix._BLAS_THREADS is None, reason="numpy calls no OpenBLAS")
class TestOneBlasThread:
    """fit, sweep and relative_residual hold numpy's OpenBLAS at one thread
    and restore the caller's count when they return or raise."""

    @pytest.fixture
    def caller_threads(self):
        # The caller runs OpenBLAS at 3 threads, then gets its count back.
        get, put = matrix._BLAS_THREADS
        before = get()
        put(3)
        yield get
        put(before)

    def test_fit_and_relative_residual_restore(self, caller_threads):
        a = gen_dense(SynthSpec(m=60, n=40, true_rank=3, seed=1))
        f, _ = fit(a, SolverConfig(rank=3, k=3, max_sweeps=2, seed=0))
        assert caller_threads() == 3
        relative_residual(a, f.U, f.V)
        assert caller_threads() == 3

    def test_sweep_runs_at_one_thread_and_restores(self, caller_threads):
        a = gen_dense(SynthSpec(m=60, n=40, true_rank=3, seed=1))
        factors = initialize(a, 3, 0, k=3)
        seen = []
        for side in "VU":
            sweep(a, factors, side, observer=lambda *_: seen.append(caller_threads()))
            assert caller_threads() == 3
        assert seen and set(seen) == {1}

    def test_raising_fit_restores(self, caller_threads):
        a = gen_dense(SynthSpec(m=60, n=40, true_rank=3, seed=1))
        a.data[7, 3] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            fit(a, SolverConfig(rank=3, k=3, max_sweeps=2, seed=0))
        assert caller_threads() == 3

    def test_generated_matrix_does_not_depend_on_threads(self, caller_threads):
        # The planted product, rank 3, is summed otherwise by OpenBLAS at
        # several threads; gen_dense holds it at one.
        spec = SynthSpec(m=2000, n=1500, true_rank=3, seed=6)
        many = gen_dense(spec).data
        assert caller_threads() == 3
        get, put = matrix._BLAS_THREADS
        put(1)
        assert gen_dense(spec).data.tobytes() == many.tobytes()

    def test_overlapping_holds_restore_once_all_end(self, caller_threads):
        # Holds that end in another order than they started, as two
        # threads' fits may: the count comes back when the last one ends.
        first, second = matrix._one_blas_thread(), matrix._one_blas_thread()
        assert first.__enter__() and second.__enter__()
        assert caller_threads() == 1
        first.__exit__(None, None, None)
        assert caller_threads() == 1
        second.__exit__(None, None, None)
        assert caller_threads() == 3

    def test_concurrent_calls_hold_and_restore(self, caller_threads):
        # More threads than cores, switching often, each in a fit or a
        # sweep pair: every block runs at one thread, the fits agree, and
        # the count comes back once all have ended.
        a = gen_dense(SynthSpec(m=200, n=150, true_rank=3, seed=2))
        cfg = SolverConfig(rank=6, k=2, max_sweeps=10, seed=0)
        seen = []

        def sweeps():
            factors = initialize(a, 6, 1, k=2)
            for side in "VU":
                sweep(a, factors, side, observer=lambda *_: seen.append(caller_threads()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                fits = [pool.submit(fit, a, cfg) for _ in range(4)]
                pairs = [pool.submit(sweeps) for _ in range(4)]
                results = [f.result(timeout=120) for f in fits]
                for pair in pairs:
                    pair.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert caller_threads() == 3
        assert seen and set(seen) == {1}
        for f, t in results[1:]:
            assert f.U.data.tobytes() == results[0][0].U.data.tobytes()
            assert t.rel_residual == results[0][1].rel_residual

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork start method",
    )
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_keeps_only_its_own_holds(self, caller_threads):
        # A child has none of its parent's threads but the forking one.  A
        # hold another thread had at the fork can never end there, so the
        # child runs at the caller's count, before a fit and after it.  A
        # hold of the forking thread is the child's too: one thread until
        # it ends there, the caller's count after.
        a = gen_dense(SynthSpec(m=60, n=40, true_rank=3, seed=1))
        cfg = SolverConfig(rank=3, k=2, max_sweeps=2, seed=0)
        context = multiprocessing.get_context("fork")

        def in_child(work):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=lambda: send.send(work()))
            process.start()
            try:
                assert receive.poll(60), "the forked child did not answer"
                answer = receive.recv()
            finally:
                process.join(10)
                if process.is_alive():
                    process.kill()
            assert process.exitcode == 0
            return answer

        def fit_in_child():
            before = caller_threads()
            fit(a, cfg)
            return before, caller_threads()

        held, release = threading.Event(), threading.Event()

        def helper():
            with matrix._one_blas_thread():
                held.set()
                release.wait(60)

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            assert held.wait(60) and caller_threads() == 1
            assert in_child(fit_in_child) == (3, 3)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive() and caller_threads() == 3

        hold = matrix._one_blas_thread()
        hold.__enter__()

        def end_hold_in_child():
            during = caller_threads()
            hold.__exit__(None, None, None)
            return during, caller_threads()

        try:
            assert in_child(end_hold_in_child) == (1, 3)
        finally:
            hold.__exit__(None, None, None)
        assert caller_threads() == 3

    def test_screens_run_at_one_thread(self, caller_threads, tmp_path, monkeypatch):
        # |A|^2 in the CSR constructor's screen, in the reader's screen of
        # an array file and in frobenius_norm runs at one thread, as in a
        # fit, so that it has a fit's bits.
        seen, fro_squared = [], matrix._fro_squared
        monkeypatch.setattr(
            matrix,
            "_fro_squared",
            lambda values: seen.append(caller_threads()) or fro_squared(values),
        )
        rng = np.random.default_rng(24)
        s = csr_of(rng.random((30, 20)))
        assert seen == [1] and caller_threads() == 3
        path = tmp_path / "a.mtx"
        write_matrix_market(DenseMatrix(rng.random((30, 20))), path)
        read_matrix_market(path)
        assert seen == [1, 1] and caller_threads() == 3
        frobenius_norm(s)
        assert seen == [1, 1, 1] and caller_threads() == 3


class TestRunShares:
    def test_results_in_order(self, workers):
        assert _run_shares(lambda s: s * s, list(range(7)), workers) == [
            s * s for s in range(7)
        ]

    def test_shares_run_at_once(self, monkeypatch):
        # Each share waits for the other, so they must run on two threads.
        monkeypatch.setattr(matrix, "_worker_count", lambda: 2)
        both = threading.Barrier(2, timeout=10)
        threads = _run_shares(
            lambda s: (both.wait(), threading.current_thread())[1], [0, 1], 2
        )
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

                assert _run_shares(task, list(range(50)), 9) == list(range(50))
                assert runs == collections.Counter(range(50))
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_single_share_never_starts_the_pool(self, monkeypatch):
        monkeypatch.setattr(matrix, "_pool", None)
        assert _run_shares(lambda s: threading.current_thread(), [0], 2) == [
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
            got = _run_shares(
                lambda s: threading.current_thread() is caller, [0, 1, 2], 3
            )
            assert got == [True, True, True]
            assert not busy.done()
        finally:
            release.set()
            pool.shutdown()

    def test_busy_pool_released_later_runs_no_share(self, monkeypatch):
        # The pool frees its thread only after the caller has run every
        # share; what it then runs must not call the task again.
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(matrix, "_pool", pool)
        release = threading.Event()
        pool.submit(release.wait, 10)
        calls = collections.Counter()

        def task(share):
            calls[share] += 1
            return share

        try:
            assert _run_shares(task, [0, 1, 2], 3) == [0, 1, 2]
            assert calls == collections.Counter([0, 1, 2])
        finally:
            release.set()
            pool.shutdown()
        assert calls == collections.Counter([0, 1, 2])

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
            _run_shares(task, list(range(6)), 3)
        assert not running
        count = len(started)
        time.sleep(0.1)
        assert len(started) == count < 6

    def test_helpers_capped_at_workers(self, monkeypatch):
        # Shares beyond the worker count start no more helpers: the
        # threads already taking shares take the rest.
        submitted = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        pool = Pool(1)
        monkeypatch.setattr(matrix, "_pool", pool)
        try:
            assert _run_shares(lambda s: s, list(range(50)), 2) == list(range(50))
        finally:
            pool.shutdown()
        assert len(submitted) == 1
        monkeypatch.setattr(matrix, "_pool", None)
        assert _run_shares(lambda s: s, list(range(50)), 1) == list(range(50))
        assert matrix._pool is None

    def test_worker_count_is_the_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert matrix._worker_count() == len(os.sched_getaffinity(0))
        else:
            assert matrix._worker_count() == (os.cpu_count() or 1)


class TestSplitScreen:
    """With ``nonnegative`` set and at least :data:`matrix._SCREEN_FLOOR`
    stored values, :func:`matrix._finite_fro2` runs ``|A|^2`` and the
    minimum as two shares, each computing what the unsplit screen does:
    the same bits and the same errors, finite first, then sign, then
    overflow."""

    @staticmethod
    def held(kind, arr):
        # A matrix over ``arr``'s values that reads them as they are at
        # the call: a CSR matrix of every entry has them in row order.
        if kind == "csr":
            A = csr_of(np.ones_like(arr))
            A.values[:] = arr.ravel()
            return A
        if kind == "converted":
            return DenseMatrix(arr.tolist())
        return DenseMatrix(np.require(arr, requirements=kind))

    @pytest.mark.parametrize("kind", ["C", "F", "converted", "csr"])
    def test_same_bits_as_fro_squared(self, kind, workers, monkeypatch):
        # The shares are recorded after the CSR constructor's screen.
        no_floors(monkeypatch)
        arr = np.random.default_rng(14).random((37, 23))
        arr[5, 6] = -0.0
        A = self.held(kind, arr)
        if kind == "converted":
            assert A.data.flags.f_contiguous
        shares = record_shares(monkeypatch)
        got = matrix._finite_fro2(A, nonnegative=True)
        assert got.hex() == matrix._fro_squared(matrix._stored(A)).hex()
        assert shares == [min(workers, 2)]

    @pytest.mark.parametrize(
        "entries, error, message",
        [
            ({(2, 1): np.nan, (4, 3): -1.0}, ValueError, "must be finite"),
            ({(2, 1): -np.inf}, ValueError, "must be finite"),
            ({(2, 1): -1.0}, ValueError, "must be nonnegative"),
            ({(2, 1): -1e200, (4, 3): 1e200}, ValueError, "must be nonnegative"),
            ({(2, 1): 1e200}, FloatingPointError, r"\|A\|\^2 overflows"),
        ],
        ids=["nan_and_negative", "minus_inf", "negative", "negative_overflow", "overflow"],
    )
    @pytest.mark.parametrize("kind", ["C", "F", "csr"])
    def test_same_errors(self, kind, entries, error, message, workers, monkeypatch):
        no_floors(monkeypatch)
        arr = np.random.default_rng(15).random((7, 5))
        for at, value in entries.items():
            arr[at] = value
        A = self.held(kind, arr)
        if error is ValueError:
            name = "sparse" if kind == "csr" else "dense"
            message = f"^{name} matrix entries {message}$"
        with pytest.raises(error, match=message):
            matrix._finite_fro2(A, nonnegative=True)

    def test_large_dense_fit_and_sweep_split(self, monkeypatch):
        # With the module's floor: fit and sweep screen in two shares,
        # relative_residual, which checks no sign, in one pass, which
        # takes the calling thread alone.  The products' shares are not
        # recorded.
        monkeypatch.setattr(matrix, "_worker_count", lambda: 2)
        shares = record_shares(monkeypatch, "_screen")
        a = DenseMatrix(np.random.default_rng(16).random((1100, 1000)))
        assert a.data.size >= matrix._SCREEN_FLOOR
        factors, _ = fit(a, SolverConfig(rank=2, k=1, max_sweeps=1, seed=0))
        assert shares == [2]
        sweep(a, factors, "V")
        assert shares == [2, 2]
        relative_residual(a, factors.U, factors.V)
        assert shares == [2, 2, 1]

    def test_small_input_runs_unsplit(self, workers, monkeypatch):
        # Below the module's floor both passes of each screen, fit's and
        # sweep's, run on the calling thread.
        shares = record_shares(monkeypatch, "_screen")
        a = DenseMatrix(np.random.default_rng(17).random((60, 40)))
        factors, _ = fit(a, SolverConfig(rank=2, k=1, max_sweeps=1, seed=0))
        sweep(a, factors, "U")
        assert shares == [1, 1]


class TestSharedScreen:
    """The CSR constructor checks its values with the screen that fit,
    sweep and the Matrix Market reader use, :func:`matrix._screen`: a
    value whose square overflows and -0.0 pass, and NaN, either infinity
    and a negative value fail, finite first, then sign."""

    @staticmethod
    def row(values):
        n = len(values)
        return SparseMatrixCSR(1, n, [0, n], np.arange(n), np.array(values, float))

    def test_accepts_overflowing_square_and_minus_zero(self, workers, monkeypatch):
        no_floors(monkeypatch)
        values = np.array([0.5, 1e200, -0.0, 2.0])
        assert self.row(values).values.tobytes() == values.tobytes()
        fro2, failed = matrix._screen(values, nonnegative=True)
        assert fro2 == math.inf and failed is None

    @pytest.mark.parametrize(
        "bad, failed",
        [
            (np.nan, "finite"),
            (np.inf, "finite"),
            (-np.inf, "finite"),
            (-1.0, "nonnegative"),
        ],
        ids=["nan", "inf", "minus_inf", "negative"],
    )
    @pytest.mark.parametrize("big", [1.0, 1e200], ids=["unit", "overflowing"])
    def test_rejects(self, bad, failed, big, workers, monkeypatch):
        no_floors(monkeypatch)
        values = [0.5, big, bad, -2.0]
        message = "^sparse values must be finite and nonnegative$"
        with pytest.raises(ValueError, match=message):
            self.row(values)
        assert matrix._screen(np.array(values), nonnegative=True)[1] == failed
        assert matrix._screen(np.array(values), nonnegative=False)[1] == (
            "finite" if failed == "finite" else None
        )

    def test_large_construction_alike_at_every_worker_count(self, monkeypatch):
        # Above the module's floor the constructor's screen is two shares,
        # split between 2 or 3 workers, on one thread at 1: the matrix holds
        # the same arrays at each count, and a negative value fails at each.
        m, n = 1024, 1030
        offsets = np.arange(0, m * n + 1, n)
        indices = np.tile(np.arange(n), m)
        values = np.random.default_rng(18).random(m * n)
        assert values.size >= matrix._SCREEN_FLOOR
        shares = record_shares(monkeypatch)
        for count in (1, 2, 3):
            monkeypatch.setattr(matrix, "_worker_count", lambda c=count: c)
            shares.clear()
            A = SparseMatrixCSR(m, n, offsets, indices, values.copy())
            assert shares == [min(count, 2)]
            assert A.row_offsets.tobytes() == offsets.tobytes()
            assert A.col_indices.tobytes() == indices.tobytes()
            assert A.values.tobytes() == values.tobytes()
            bad = values.copy()
            bad[-1] = -1.0
            with pytest.raises(ValueError, match="finite and nonnegative"):
                SparseMatrixCSR(m, n, offsets, indices, bad)


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
        # No errstate here: warnings are errors, so an overflow warning
        # from |A|^2 or from a product after it would reach the caller in
        # place of the breakdown, which is raised before either runs.
        factors = initialize(DenseMatrix(np.ones((4, 3))), 1, 0, k=1)
        values = np.full((4, 3), 1e200)
        message = r"^numerical breakdown: \|A\|\^2 overflows$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (DenseMatrix(values), csr_of(values)):
                assert frobenius_norm(a) == math.inf
                for call in (
                    lambda: fit(a, SolverConfig(rank=1, k=1)),
                    lambda: sweep(a, factors, "V"),
                    lambda: sweep(a, factors, "U"),
                    lambda: relative_residual(a, factors.U, factors.V),
                ):
                    with pytest.raises(FloatingPointError, match=message):
                        call()

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_squares_underflow_is_no_zero_matrix(self, kind):
        # Entries of 2^-600 (and subnormal ones) square to 0, so |A|^2 is
        # 0 on a matrix that is not all zero: a breakdown, not the
        # all-zero rejection.
        values = np.full((4, 3), 2.0**-600)
        values[1, 2] = 5e-324
        a = DenseMatrix(values) if kind == "dense" else csr_of(values)
        factors = initialize(DenseMatrix(np.ones((4, 3))), 1, 0, k=1)
        with pytest.raises(FloatingPointError, match="underflows"):
            fit(a, SolverConfig(rank=1, k=1))
        with pytest.raises(FloatingPointError, match="underflows"):
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

    @staticmethod
    def scipy_sorts(monkeypatch) -> list:
        """The calls of scipy's COO conversion, which sorts and sums, by
        :meth:`SparseMatrixCSR.from_coo`."""
        calls, to_coo = [], matrix.coo_array
        monkeypatch.setattr(
            matrix, "coo_array", lambda *a, **kw: calls.append(1) or to_coo(*a, **kw)
        )
        return calls

    @staticmethod
    def assert_scipy_arrays(s, rows, cols, vals):
        # The arrays of scipy's conversion, in the constructor's dtypes.
        want = coo_array((vals, (rows, cols)), shape=s.shape, dtype=np.float64)
        want = want.tocsr()
        for got, held in zip(
            (s.row_offsets, s.col_indices, s.values),
            (want.indptr, want.indices, want.data),
        ):
            assert got.dtype == (np.float64 if got is s.values else np.int64)
            assert got.tobytes() == held.astype(got.dtype).tobytes()

    def test_from_coo_sorted_triples_need_no_sort(self, monkeypatch):
        # Row-major triples, with empty rows first, between and last.
        rng = np.random.default_rng(23)
        d = rng.random((30, 20)) * (rng.random((30, 20)) < 0.2)
        d[[0, 7, 29]] = 0.0
        rows, cols = np.nonzero(d)
        calls = self.scipy_sorts(monkeypatch)
        s = SparseMatrixCSR.from_coo(30, 20, rows, cols, d[rows, cols])
        assert calls == []
        self.assert_scipy_arrays(s, rows, cols, d[rows, cols])

    @pytest.mark.parametrize(
        "rows, cols, want",
        [
            ([0, 0, 0, 1], [0, 2, 2, 1], [1.0, 0.75, 4.0]),
            ([0, 0, 1, 1], [2, 0, 1, 1], [0.5, 1.0, 4.25]),
        ],
        ids=["repeated_cell", "falling_columns"],
    )
    def test_from_coo_rows_in_order_fall_back(self, rows, cols, want, monkeypatch):
        # Rows in order, but a cell repeated or columns falling in row 0:
        # the constructor refuses them and scipy sorts and sums.
        vals = [1.0, 0.5, 0.25, 4.0]
        calls = self.scipy_sorts(monkeypatch)
        s = SparseMatrixCSR.from_coo(2, 3, rows, cols, vals)
        assert calls == [1]
        assert s.values.tolist() == want
        self.assert_scipy_arrays(s, rows, cols, vals)

    @pytest.mark.parametrize("rows", [[0, 10**15], [-3, 0]], ids=["beyond", "negative"])
    def test_from_coo_rows_out_of_range(self, rows):
        # Sorted rows outside [0, 2) reach scipy's error, not a count of
        # each row up to 10^15.
        with pytest.raises(ValueError) as scipy_error:
            coo_array(([1.0, 2.0], (rows, [0, 1])), shape=(2, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as error:
                SparseMatrixCSR.from_coo(2, 2, rows, [0, 1], [1.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(error.value) == str(scipy_error.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "dtype", [np.int32, np.uint64, None], ids=["int32", "uint64", "empty_list"]
    )
    def test_from_coo_index_dtypes(self, dtype, monkeypatch):
        # int32 indices take the sorted path.  uint64 ones and an empty
        # list's float64 take whichever path np.bincount lets them (numpy
        # 2.4 counts uint64 and refuses the float64) and build alike.
        if dtype is None:
            rows, cols, vals = [], [], []
        else:
            rows, cols = np.array([0, 0, 2], dtype), np.array([1, 3, 0], dtype)
            vals = [1.5, 2.0, 3.0]
        calls = self.scipy_sorts(monkeypatch)
        s = SparseMatrixCSR.from_coo(3, 4, rows, cols, vals)
        if dtype is np.int32:
            assert calls == []
        self.assert_scipy_arrays(s, rows, cols, vals)

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
                row = dense_row(A, i)
                # Fresh values, never the matrix's own storage.
                assert row.dtype == np.float64
                assert not np.shares_memory(row, A.sp.data)
                np.testing.assert_array_equal(row, ref[i])
            for bad in (-1, A.rows):
                with pytest.raises(IndexError):
                    read_rows(A, [bad])

    def test_read_rows_negative_zero_reads_as_zero(self):
        # scipy's densification turns a stored -0.0 into 0.0, on both
        # views, whether the row is read alone or with others.
        s = SparseMatrixCSR(2, 3, [0, 2, 2], [0, 2], [-0.0, 1.0])
        for A in (s, transposed(s)):
            assert not np.signbit(read_rows(A, range(A.rows))).any()
            for i in range(A.rows):
                assert not np.signbit(dense_row(A, i)).any()

    def test_read_rows(self):
        # One call returns the wanted rows, in the order given and repeats
        # kept, as the columns of one new Fortran-ordered array: on dense
        # C, F and transposed input, the CSR matrix and its CSC view.
        rng = np.random.default_rng(9)
        s = random_sparse(rng, 14, 11, 0.25)
        d = s.to_dense().data
        views = (
            (s, d),
            (transposed(s), d.T),
            (DenseMatrix(np.ascontiguousarray(d)), d),
            (DenseMatrix(np.asfortranarray(d)), d),
            (transposed(DenseMatrix(d)), d.T),
        )
        for A, ref in views:
            wanted = [A.rows - 1, 0, 3, 3, 7]
            got = read_rows(A, wanted)
            assert got.shape == (A.cols, len(wanted))
            assert got.dtype == np.float64 and got.flags.f_contiguous
            np.testing.assert_array_equal(got, ref[wanted].T)
            for j, i in enumerate(wanted):
                # The gather equals reading the row on its own.
                np.testing.assert_array_equal(got[:, j], dense_row(A, i))
            stored = A.data if isinstance(A, DenseMatrix) else A.sp.data
            assert not np.shares_memory(got, stored)
            empty = read_rows(A, [])
            assert empty.shape == (A.cols, 0) and empty.dtype == np.float64
            for bad in ([-1], [0, A.rows]):
                with pytest.raises(IndexError):
                    read_rows(A, bad)

    def test_read_rows_transposed_allocates_no_index_copy(self):
        # The U-side gather on a sparse-mtx-shaped input (10000 x 5000,
        # 1% dense) reads 17 columns through scipy's row selection on the
        # CSC view.  An nnz-length int64 array (8 bytes per stored entry)
        # must not appear.
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
        for j, col in enumerate(wanted):
            np.testing.assert_array_equal(got[:, j], s.sp[:, [col]].toarray()[:, 0])

    def test_frobenius_norm(self):
        rng = np.random.default_rng(8)
        a = rng.random((6, 7))
        assert frobenius_norm(DenseMatrix(a)) == pytest.approx(np.linalg.norm(a))
        s = random_sparse(rng, 10, 10, 0.3)
        assert frobenius_norm(s) == pytest.approx(
            np.linalg.norm(s.to_dense().data)
        )


class TestComputedResults:
    """Every matrix the package computes is built by the public
    DenseMatrix constructor, over a 2-d contiguous float64 array."""

    @pytest.fixture
    def built(self, monkeypatch):
        # The matrices DenseMatrix.__init__ builds while a test runs.
        seen = []
        init = DenseMatrix.__init__

        def recorded(self, data):
            init(self, data)
            seen.append(self)

        monkeypatch.setattr(DenseMatrix, "__init__", recorded)
        return seen

    def results(self):
        # A maker of (name, matrix) pairs for each kind of computed result;
        # the inputs are built before any maker runs.
        rng = np.random.default_rng(9)
        arr = rng.random((30, 20))
        inputs = {
            "dense_c": DenseMatrix(np.ascontiguousarray(arr)),
            "dense_f": DenseMatrix(np.asfortranarray(arr)),
            "sparse": random_sparse(rng, 30, 20, 0.2),
        }
        u_c = DenseMatrix(np.ascontiguousarray(rng.random((30, 4))))
        u_f = DenseMatrix(np.asfortranarray(rng.random((30, 4))))
        v = DenseMatrix(rng.random((20, 4)))
        spec = SynthSpec(m=12, n=10, true_rank=3, seed=2)
        return [
            lambda: [("gram_c", gram(u_c)), ("gram_f", gram(u_f))],
            lambda: [
                (f"at_times_{name}_{order}", at_times(A, U))
                for name, A in inputs.items()
                for order, U in (("c", u_c), ("f", u_f))
            ],
            lambda: [
                (f"at_times_transposed_{name}", at_times(transposed(A), v))
                for name, A in inputs.items()
            ],
            lambda: [
                ("transposed_c", transposed(inputs["dense_c"])),
                ("transposed_f", transposed(inputs["dense_f"])),
            ],
            lambda: [("to_dense", inputs["sparse"].to_dense())],
            lambda: [
                (f"initialize_{name}_{side}", getattr(pair, side))
                for name, A in inputs.items()
                for pair in [initialize(A, 4, 3, k=2)]
                for side in "UV"
            ],
            lambda: list(zip(["gen_dense", "W", "H"], gen_dense(spec, True))),
        ]

    def test_every_result_built_by_the_constructor(self, built):
        for make in self.results():
            built.clear()
            for name, result in make():
                assert isinstance(result, DenseMatrix), name
                assert any(result is b for b in built), name
                data = result.data
                assert data.ndim == 2 and data.dtype == np.float64, name
                assert data.flags.c_contiguous or data.flags.f_contiguous, name

    def test_nnls_block_gram_of_a_fortran_copy(self, built, monkeypatch):
        # nnls_block takes its Gram of a Fortran copy of a C-ordered G,
        # built by the constructor, as it did before the constructor held
        # C-ordered arrays uncopied: the Gram's bits depend on the order.
        from arknls import nnls

        grams, inner = [], nnls.gram
        monkeypatch.setattr(nnls, "gram", lambda U: grams.append(U) or inner(U))
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            g, b = rng.random((25, k)), rng.random(25)
            grams.clear()
            nnls.nnls_block(np.ascontiguousarray(g), b)
            (U,) = grams
            assert any(U is x for x in built)
            assert U.data.flags.f_contiguous
            assert U.data.tobytes(order="F") == g.tobytes(order="F")
