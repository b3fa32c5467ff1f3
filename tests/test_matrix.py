import tracemalloc

import numpy as np
import pytest

from arknls.matrix import (
    DenseMatrix,
    SparseMatrixCSR,
    at_times,
    frobenius_norm,
    gram,
    relative_residual,
    row_dense,
    transposed,
)


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


class TestContainers:
    def test_dense_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, np.inf]])

    def test_csr_validation(self):
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 1], [0], [1.0])  # offsets wrong length
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 2, 2], [1, 0], [1.0, 1.0])  # unsorted row
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 1, 2], [0, 5], [1.0, 1.0])  # col range
        with pytest.raises(ValueError):
            SparseMatrixCSR(2, 2, [0, 1, 2], [0, 1], [1.0, -1.0])  # negative

    def test_from_coo_sums_duplicates(self):
        s = SparseMatrixCSR.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense().data, [[0.0, 3.5], [4.0, 0.0]])

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
            np.testing.assert_array_equal(row_dense(s_t, j), d[:, j])
        u = rng.random((12, 4))
        np.testing.assert_allclose(
            at_times(s_t, DenseMatrix(u)).data, d @ u, rtol=1e-13, atol=0
        )

    def test_row_dense(self):
        rng = np.random.default_rng(6)
        s = random_sparse(rng, 8, 11, 0.2)
        d = s.to_dense().data
        for i in range(8):
            np.testing.assert_array_equal(row_dense(s, i), d[i])
        np.testing.assert_array_equal(row_dense(s.to_dense(), 3), d[3])

    def test_frobenius_norm(self):
        rng = np.random.default_rng(8)
        a = rng.random((6, 7))
        assert frobenius_norm(DenseMatrix(a)) == pytest.approx(np.linalg.norm(a))
        s = random_sparse(rng, 10, 10, 0.3)
        assert frobenius_norm(s) == pytest.approx(
            np.linalg.norm(s.to_dense().data)
        )
