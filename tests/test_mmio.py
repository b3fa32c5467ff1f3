import tracemalloc

import numpy as np
import pytest

from arknls import mmio
from arknls.matrix import DenseMatrix, SparseMatrixCSR, transposed
from arknls.mmio import (
    MatrixMarketError,
    TraceRow,
    read_matrix_market,
    read_trace_csv,
    write_matrix_market,
    write_trace_csv,
)
from arknls.solver import SolveTrace


def write(path, text):
    path.write_text(text)
    return str(path)


class TestRead:
    def test_coordinate_identity(self, tmp_path):
        p = write(
            tmp_path / "i.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n",
        )
        m = read_matrix_market(p)
        assert isinstance(m, SparseMatrixCSR)
        np.testing.assert_array_equal(m.to_dense().data, np.eye(2))

    def test_array_column_major_order(self, tmp_path):
        p = write(
            tmp_path / "a.mtx",
            "%%MatrixMarket matrix array real general\n"
            "3 2\n1\n2\n3\n4\n5\n6\n",
        )
        m = read_matrix_market(p)
        assert isinstance(m, DenseMatrix)
        np.testing.assert_array_equal(m.data, [[1, 4], [2, 5], [3, 6]])

    def test_pattern_reads_as_ones(self, tmp_path):
        p = write(
            tmp_path / "p.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 2\n1 2\n2 3\n",
        )
        m = read_matrix_market(p)
        np.testing.assert_array_equal(
            m.to_dense().data, [[0, 1, 0], [0, 0, 1]]
        )

    def test_symmetric_coordinate_expansion(self, tmp_path):
        p = write(
            tmp_path / "s.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n1 1 2.0\n2 1 1.5\n3 3 1.0\n",
        )
        m = read_matrix_market(p)
        np.testing.assert_array_equal(
            m.to_dense().data, [[2.0, 1.5, 0], [1.5, 0, 0], [0, 0, 1.0]]
        )

    def test_symmetric_array_expansion(self, tmp_path):
        p = write(
            tmp_path / "sa.mtx",
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n1\n2\n3\n",
        )
        m = read_matrix_market(p)
        np.testing.assert_array_equal(m.data, [[1, 2], [2, 3]])

    def test_duplicates_summed(self, tmp_path):
        p = write(
            tmp_path / "d.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 1 2.0\n2 1 3.0\n",
        )
        m = read_matrix_market(p)
        np.testing.assert_array_equal(m.to_dense().data, [[3.0, 0], [3.0, 0]])

    def test_comments_skipped(self, tmp_path):
        p = write(
            tmp_path / "c.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 2 1\n% another\n2 1 4.0\n",
        )
        m = read_matrix_market(p)
        assert m.to_dense().data[1, 0] == 4.0

    def test_underscore_digits_read_as_python_float(self, tmp_path):
        # np.loadtxt turns '1_0' away; the line reader accepts it as float().
        p = write(
            tmp_path / "u.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1_0\n2 2 0.5\n",
        )
        m = read_matrix_market(p)
        np.testing.assert_array_equal(m.to_dense().data, [[10.0, 0], [0, 0.5]])


class TestReadErrors:
    @pytest.mark.parametrize(
        "header",
        [
            "%%NotMatrixMarket matrix coordinate real general",
            "%%MatrixMarket tensor coordinate real general",
            "%%MatrixMarket matrix coordinate complex general",
            "%%MatrixMarket matrix coordinate integer general",
            "%%MatrixMarket matrix coordinate real hermitian",
            "%%MatrixMarket matrix array pattern general",
        ],
    )
    def test_bad_headers(self, tmp_path, header):
        p = write(tmp_path / "h.mtx", header + "\n1 1 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
            read_matrix_market(p)

    def test_negative_entry_has_line_number(self, tmp_path):
        p = write(
            tmp_path / "n.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n2 2 -3.0\n",
        )
        with pytest.raises(MatrixMarketError, match="line 4"):
            read_matrix_market(p)

    def test_out_of_range_index(self, tmp_path):
        p = write(
            tmp_path / "o.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n3 1 1.0\n",
        )
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(p)

    def test_entry_count_mismatch(self, tmp_path):
        p = write(
            tmp_path / "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n",
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(p)

    def test_array_negative(self, tmp_path):
        p = write(
            tmp_path / "an.mtx",
            "%%MatrixMarket matrix array real general\n2 1\n1.0\n-2.0\n",
        )
        with pytest.raises(MatrixMarketError, match="line 4"):
            read_matrix_market(p)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_coordinate(self, tmp_path, token):
        p = write(
            tmp_path / "nf.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            f"2 2 2\n1 1 1.0\n% note\n2 2 {token}\n",
        )
        with pytest.raises(MatrixMarketError, match="line 5: non-finite value"):
            read_matrix_market(p)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_array(self, tmp_path, token):
        p = write(
            tmp_path / "nfa.mtx",
            f"%%MatrixMarket matrix array real general\n2 1\n1.0\n{token}\n",
        )
        with pytest.raises(MatrixMarketError, match="line 4: non-finite value"):
            read_matrix_market(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "e.mtx", "")
        with pytest.raises(MatrixMarketError, match="line 1: empty file"):
            read_matrix_market(p)

    @pytest.mark.parametrize(
        "tail, line", [("", 1), ("% only a comment\n\n", 3)]
    )
    def test_missing_size_line_reports_last_line(self, tmp_path, tail, line):
        p = write(
            tmp_path / "s.mtx",
            "%%MatrixMarket matrix coordinate real general\n" + tail,
        )
        with pytest.raises(MatrixMarketError, match=f"line {line}: missing size line"):
            read_matrix_market(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "%%MatrixMarket matrix array real general\n0 -1\n",
                "line 2: size line entries must be nonnegative",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n-1 -1 0\n",
                "line 2: size line entries must be nonnegative",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 -1 1\n1 1 1.0\n",
                "line 2: size line entries must be nonnegative",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1.0\n2 2 \u0661\n",
                "line 4: non-ASCII byte 0xd9",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n"
                "% caf\u00e9\n2 2 1\n1 1 1.0\n",
                "line 2: non-ASCII byte 0xc3",
            ),
        ],
    )
    def test_both_readers_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "l.mtx"
        path.write_bytes(text.encode("utf-8"))
        for reader in (read_matrix_market, mmio._read_by_lines):
            with pytest.raises(MatrixMarketError) as caught:
                reader(path)
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("2 2 1.0 7", "line 4: expected 3 fields per entry"),
            ("1.0 2 1.0", "line 4: malformed entry"),
            ("1e0 2 1.0", "line 4: malformed entry"),
            ("2 2 1.0\n2 1 1.0", "line 2: declared 2 entries, found 3"),
            ("2 2 0x1p0", "line 4: malformed entry"),
            ("2 2 1.0x", "line 4: malformed entry"),
            ("2 2 1.0 % note", "line 4: expected 3 fields per entry"),
        ],
    )
    def test_entries_the_line_reader_rejects(self, tmp_path, entries, message):
        p = write(
            tmp_path / "r.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            f"2 2 2\n1 1 1.0\n{entries}\n",
        )
        with pytest.raises(MatrixMarketError) as caught:
            read_matrix_market(p)
        assert str(caught.value) == message


_GENERAL = b"%%MatrixMarket matrix coordinate real general\n"
_SYMMETRIC = b"%%MatrixMarket matrix coordinate real symmetric\n"


class TestBulkParse:
    """The bulk parse against the line reader, bitwise."""

    @pytest.mark.parametrize(
        "text, by_lines",
        [
            # Unsorted, with three copies of (3, 1) and empty rows 2 and 4.
            (
                _GENERAL + b"4 3 6\n3 1 0.1\n1 2 2.5\n3 1 0.2\n"
                b"1 1 1e-300\n3 1 0.3\n4 3 5e-324\n",
                False,
            ),
            (_GENERAL + b"3 3 0\n", True),
            (
                b"%%MatrixMarket matrix coordinate pattern general\n"
                b"3 4 3\n3 4\n1 2\n3 1\n",
                False,
            ),
            (
                _SYMMETRIC + b"3 3 5\n2 1 0.1\n1 2 0.2\n2 1 0.3\n"
                b"3 3 1.5\n3 1 0.7\n",
                False,
            ),
            (
                b"%%MatrixMarket matrix coordinate pattern symmetric\n"
                b"3 3 3\n2 1\n2 2\n3 1\n",
                False,
            ),
            (
                b"%%MatrixMarket matrix coordinate real general\r\n"
                b"% comment\r\n3 3 3\r\n1\t1\t0.5\r\n\r\n"
                b"  2 3   1.25  \r\n \t \r\n3\t2 2\r\n",
                False,
            ),
            (_GENERAL + b"2 2 2\n1 1 1.0\n% note\n2 2 3.0\n", True),
            (
                b"%%MatrixMarket matrix array real general\n"
                b"3 2\n0.1 2\n3 4\n5 6e-300\n",
                False,
            ),
            (
                b"%%MatrixMarket matrix array real general\n"
                b"2 2\n1\n2 3\n4\n",
                True,
            ),
            (
                b"%%MatrixMarket matrix array real symmetric\n"
                b"3 3\n1\n2\n3\n4\n5\n6\n",
                False,
            ),
        ],
    )
    def test_equals_line_reader(self, tmp_path, monkeypatch, text, by_lines):
        path = tmp_path / "e.mtx"
        path.write_bytes(text)
        want = mmio._read_by_lines(path)
        fallbacks = []
        line_reader = mmio._read_by_lines
        monkeypatch.setattr(
            mmio, "_read_by_lines", lambda p: fallbacks.append(p) or line_reader(p)
        )
        got = read_matrix_market(path)
        assert len(fallbacks) == int(by_lines)
        assert type(got) is type(want)
        if isinstance(want, DenseMatrix):
            pairs = [(got.data, want.data)]
            assert got.data.flags.f_contiguous and want.data.flags.f_contiguous
        else:
            pairs = [
                (got.row_offsets, want.row_offsets),
                (got.col_indices, want.col_indices),
                (got.values, want.values),
            ]
        for a, b in pairs:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes(order="A") == b.tobytes(order="A")

    def test_written_file_equals_line_reader(self, tmp_path):
        rng = np.random.default_rng(3)
        rows, cols = np.nonzero(rng.random((60, 40)) < 0.1)
        a = SparseMatrixCSR.from_coo(60, 40, rows, cols, rng.random(rows.size))
        path = tmp_path / "w.mtx"
        write_matrix_market(a, path)
        got, want = read_matrix_market(path), mmio._read_by_lines(path)
        for name in ("row_offsets", "col_indices", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestWrite:
    VALUES = [0.1, 2 / 3, 1e-300, 5e-324, 1.7976931348623157e308]

    @pytest.mark.parametrize("chunk", [65536, 2])
    def test_sparse_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(mmio, "_WRITE_CHUNK", chunk)
        a = SparseMatrixCSR.from_coo(3, 4, [0, 0, 2, 2, 2], [0, 3, 0, 1, 3], self.VALUES)
        path = tmp_path / "s.mtx"
        write_matrix_market(a, path)
        assert path.read_bytes() == (
            b"%%MatrixMarket matrix coordinate real general\n"
            b"3 4 5\n"
            b"1 1 0.10000000000000001\n"
            b"1 4 0.66666666666666663\n"
            b"3 1 1e-300\n"
            b"3 2 4.9406564584124654e-324\n"
            b"3 4 1.7976931348623157e+308\n"
        )

    @pytest.mark.parametrize("chunk", [65536, 2])
    def test_dense_bytes(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(mmio, "_WRITE_CHUNK", chunk)
        a = DenseMatrix(np.array([self.VALUES + [0.0]]).reshape((3, 2), order="F"))
        path = tmp_path / "d.mtx"
        write_matrix_market(a, path)
        assert path.read_bytes() == (
            b"%%MatrixMarket matrix array real general\n"
            b"3 2\n"
            b"0.10000000000000001\n"
            b"0.66666666666666663\n"
            b"1e-300\n"
            b"4.9406564584124654e-324\n"
            b"1.7976931348623157e+308\n"
            b"0\n"
        )


class TestRoundTrip:
    def assert_same_sparse(self, a, b):
        np.testing.assert_array_equal(a.row_offsets, b.row_offsets)
        np.testing.assert_array_equal(a.col_indices, b.col_indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_dense(self, tmp_path):
        rng = np.random.default_rng(0)
        a = DenseMatrix(rng.random((5, 4)))
        path = tmp_path / "rt.mtx"
        write_matrix_market(a, path)
        b = read_matrix_market(path)
        np.testing.assert_array_equal(a.data, b.data)

    def test_sparse(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((9, 7)) < 0.3
        rows, cols = np.nonzero(mask)
        a = SparseMatrixCSR.from_coo(9, 7, rows, cols, rng.random(rows.size))
        path = tmp_path / "rt.mtx"
        write_matrix_market(a, path)
        self.assert_same_sparse(a, read_matrix_market(path))

    def test_transposed_sparse_view(self, tmp_path):
        # The transposed view of S writes the bytes of the CSR matrix S^T
        # and reads back as S^T.
        rng = np.random.default_rng(3)
        rows, cols = np.nonzero(rng.random((9, 7)) < 0.3)
        s = SparseMatrixCSR.from_coo(9, 7, rows, cols, rng.random(rows.size))
        s_t = SparseMatrixCSR.from_coo(7, 9, cols, rows, s.values)
        view_path, csr_path = tmp_path / "view.mtx", tmp_path / "csr.mtx"
        write_matrix_market(transposed(s), view_path)
        write_matrix_market(s_t, csr_path)
        assert view_path.read_bytes() == csr_path.read_bytes()
        self.assert_same_sparse(s_t, read_matrix_market(view_path))

    def test_sparse_with_empty_rows(self, tmp_path):
        a = SparseMatrixCSR.from_coo(5, 4, [0, 4], [1, 3], [2.0, 7.5])
        path = tmp_path / "rt.mtx"
        write_matrix_market(a, path)
        self.assert_same_sparse(a, read_matrix_market(path))

    def test_coordinate_read_peak_memory(self, tmp_path):
        # The reader keeps the parsed entries in typed arrays, never the
        # file's lines or per-entry Python objects, so its peak stays a
        # small multiple of the file size.
        rng = np.random.default_rng(2)
        rows, cols = np.nonzero(rng.random((400, 300)) < 0.2)
        a = SparseMatrixCSR.from_coo(400, 300, rows, cols, rng.random(rows.size))
        path = tmp_path / "big.mtx"
        write_matrix_market(a, path)
        tracemalloc.start()
        try:
            b = read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_same_sparse(a, b)
        assert peak <= 4 * path.stat().st_size


class TestTraceCsv:
    def test_single_record_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv([(1, 0.5, 0.9)], path)
        assert path.read_text() == "sweep,elapsed_s,rel_residual\n1,0.5,0.9\n"

    def test_roundtrip_10_digits(self, tmp_path):
        trace = SolveTrace()
        rng = np.random.default_rng(2)
        t = 0.0
        for i in range(1, 20):
            t += rng.random()
            trace.append(i, t, float(rng.random()))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert [r.sweep for r in back] == trace.sweeps
        for row, want_t, want_r in zip(back, trace.elapsed_s, trace.rel_residual):
            assert row.elapsed_s == pytest.approx(want_t, rel=1e-9)
            assert row.rel_residual == pytest.approx(want_r, rel=1e-9)

    def test_order_preserved(self, tmp_path):
        rows = [TraceRow(1, 0.1, 0.9), TraceRow(2, 0.2, 0.5), TraceRow(3, 0.3, 0.4)]
        path = tmp_path / "t.csv"
        write_trace_csv(rows, path)
        assert [r.rel_residual for r in read_trace_csv(path)] == [0.9, 0.5, 0.4]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace_csv([], tmp_path / "t.csv")

    def test_decreasing_elapsed_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace_csv(
                [(1, 1.0, 0.5), (2, 0.5, 0.4)], tmp_path / "t.csv"
            )
