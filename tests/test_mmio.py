import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.io import mmwrite
from scipy.sparse import coo_array

from arknls import matrix, mmio
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
        # The guard turns '1_0' away (the compiled reader reads it as 1); the
        # line reader accepts it as float() does.
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
        for reader, source in (
            (read_matrix_market, path),
            (mmio._read_by_lines, path.read_bytes()),
        ):
            with pytest.raises(MatrixMarketError) as caught:
                reader(source)
            assert str(caught.value) == message

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "%%MatrixMarket matrix coordinate real general\n"
                "3 10000000000000000000 1\n1 1 1\n",
                "line 2: dimensions must fit a 64-bit index",
                id="columns-1e19",
            ),
            pytest.param(
                "%%MatrixMarket matrix array real general\n0 10000000000000000000\n",
                "line 2: dimensions must fit a 64-bit index",
                id="array-columns-1e19",
            ),
            pytest.param(
                "%%MatrixMarket matrix coordinate real general\n"
                "4611686018427387904 3 1\n1 1 1\n",
                "line 2: cannot allocate 4611686018427387904 rows",
                id="rows-2^62",
            ),
        ],
    )
    def test_oversized_size_line_named(self, tmp_path, text, message, crlf):
        # No int64 index holds 10^19, and numpy refuses 2^62 + 1 row
        # offsets outright (2^65 bytes), so neither requests memory.  The
        # CRLF copy takes the line reader only.
        path = tmp_path / "s.mtx"
        path.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode())
        for reader, source in (
            (read_matrix_market, path),
            (mmio._read_by_lines, path.read_bytes()),
        ):
            with pytest.raises(MatrixMarketError) as caught:
                reader(source)
            assert str(caught.value) == message

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    def test_refused_row_offsets_named(self, tmp_path, monkeypatch, crlf):
        # 10^11 rows need 800 GB of offsets, which a machine might grant,
        # so every numpy allocation of more than 2^32 elements is refused
        # here, as a smaller machine refuses it.
        for name in ("empty", "zeros"):

            def refusing(shape, *args, _inner=getattr(np, name), **kwargs):
                size = math.prod(shape) if isinstance(shape, tuple) else shape
                if size > 1 << 32:
                    raise MemoryError(f"refused {size} elements")
                return _inner(shape, *args, **kwargs)

            monkeypatch.setattr(np, name, refusing)
        text = _GENERAL + b"100000000000 3 1\n1 1 1\n"
        path = tmp_path / "r.mtx"
        path.write_bytes(text.replace(b"\n", b"\r\n") if crlf else text)
        for reader, source in (
            (read_matrix_market, path),
            (mmio._read_by_lines, path.read_bytes()),
        ):
            with pytest.raises(MatrixMarketError) as caught:
                reader(source)
            assert str(caught.value) == "line 2: cannot allocate 100000000000 rows"

    @pytest.mark.parametrize("pad", [0, 9000], ids=["first-chunk", "past-first-chunk"])
    def test_non_ascii_named_before_the_banner(self, tmp_path, pad):
        # A bad banner and a non-ASCII byte on line 2: the byte is named,
        # also where a comment puts it past the first 8192 bytes a text
        # decoder reads at once, so that line 1 would be parsed first.
        path = tmp_path / "b.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix coordinate real generalx\n"
            b"%" + b"x" * pad + b"\xe9\n2 2 1\n1 1 1.0\n"
        )
        for reader, source in (
            (read_matrix_market, path),
            (mmio._read_by_lines, path.read_bytes()),
        ):
            with pytest.raises(MatrixMarketError) as caught:
                reader(source)
            assert str(caught.value) == "line 2: non-ASCII byte 0xe9"

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "%%MatrixMarket matrix dense real general\n1 1\n1.0\n",
                "line 1: unsupported format 'dense'",
                id="format-word",
            ),
            pytest.param(
                "%%MatrixMarket matrix coordinate real general\n% c\n2 2\n",
                "line 3: coordinate size line must be 'rows cols nnz'",
                id="coordinate-size-fields",
            ),
            pytest.param(
                "%%MatrixMarket matrix array real general\n2 1 2\n1.0\n2.0\n",
                "line 2: array size line must be 'rows cols'",
                id="array-size-fields",
            ),
            pytest.param(
                "%%MatrixMarket matrix array real general\n2 1.0\n1.0\n2.0\n",
                "line 2: size line entries must be integers",
                id="non-integer-size",
            ),
            pytest.param(
                "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
                "line 2: symmetric matrix must be square",
                id="symmetric-not-square",
            ),
            pytest.param(
                "%%MatrixMarket matrix array real general\n2 1\n1.0\n2.0x\n",
                "line 4: malformed value '2.0x'",
                id="array-token",
            ),
            pytest.param(
                "%%MatrixMarket matrix array real general\n2 1\n1.0\n",
                "line 3: expected 2 values, found 1",
                id="array-too-few",
            ),
            pytest.param(
                "%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n% c\n3.0\n",
                "line 5: expected 2 values, found 3",
                id="array-too-many",
            ),
        ],
    )
    def test_header_and_array_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "h.mtx"
        path.write_text(text)
        for reader, source in (
            (read_matrix_market, path),
            (mmio._read_by_lines, path.read_bytes()),
        ):
            with pytest.raises(MatrixMarketError) as caught:
                reader(source)
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
    """The compiled tier against the line reader, bitwise."""

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
            # Rows out of order, each row's count of columns rising: only
            # the rows say that this is not row-major order.
            (_GENERAL + b"3 3 2\n2 1 0.5\n1 2 0.25\n", False),
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
            # Cell (2, 1) three times: 1 + 1 + 1e16 is 1e16 + 2 with the
            # mirror of (1, 2) summed last, as mmread appends it, and 1e16
            # with it summed second.
            (_SYMMETRIC + b"2 2 3\n2 1 1\n1 2 1e16\n2 1 1\n", False),
            (
                b"%%MatrixMarket matrix coordinate real general\r\n"
                b"% comment\r\n3 3 3\r\n1\t1\t0.5\r\n\r\n"
                b"  2 3   1.25  \r\n \t \r\n3\t2 2\r\n",
                True,
            ),
            (_GENERAL + b"2 2 2\n1 1 1.0\n% note\n2 2 3.0\n", True),
            (
                b"%%MatrixMarket matrix array real general\n"
                b"3 2\n0.1 2\n3 4\n5 6e-300\n",
                True,
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
        want = mmio._read_by_lines(text)
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
            assert got.data.flags.c_contiguous and want.data.flags.c_contiguous
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
        got = read_matrix_market(path)
        want = mmio._read_by_lines(path.read_bytes())
        for name in ("row_offsets", "col_indices", "values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _outcome(reader, source):
    # What a reader gives for ``source`` (a path, or a file's bytes for the
    # line reader): the result's type and array bytes (with a dense
    # result's memory order), or the exception's type and message.
    try:
        m = reader(source)
    except Exception as err:
        return type(err), str(err)
    if isinstance(m, DenseMatrix):
        arrays = (m.data,)
    else:
        arrays = (m.row_offsets, m.col_indices, m.values)
    return type(m), m.shape, [
        (a.dtype, a.flags.f_contiguous, a.tobytes(order="A")) for a in arrays
    ]


# Value tokens that int()/float() and scipy's compiled reader read alike.
_PLAIN_VALUES = (
    lambda rng: f"{rng.random():.17g}",
    lambda rng: repr(rng.random() * 10.0 ** int(rng.integers(-300, 300))),
    lambda rng: repr(rng.random() * 10.0 ** int(rng.integers(-300, 300))).upper(),
    lambda rng: f"{rng.random():.5e}",
    lambda rng: f"{rng.random():.25f}",
    lambda rng: repr(int(rng.integers(1, 2**52)) * 5e-324),
    lambda rng: "000" + f"{rng.random():.17g}",
    lambda rng: str(
        rng.choice([
            "0", "5e-324", "1e+300", "1.", ".5", "1.e5", "0e99", "1e-400", "007",
            "1E5",
        ])
    ),
)

# Value tokens the compiled reader would read where float() would not, or
# differently, or that the reader turns away as not finite or negative.
_ODD_VALUES = (
    "1-2", "1e", "1.0e5e5", "1_0", "0x1p0", "+1", "-0", "-1.5", "1e400", "1E5E5",
    "inf", "nan", ".", "e5", ".e5", "1e+", "1.2.3", "1e5.0", "1+e5", "1..5",
    "١",
)

# Bends of a plain entry line that the guard declines.
_ODD_LINES = (
    lambda line: line.replace(" ", "\t"),
    lambda line: line.replace(" ", "  ", 1),
    lambda line: " " + line,
    lambda line: "\t" + line,
    lambda line: line[:-1] + " \n",
    lambda line: line[:-1] + "\r\n",
    lambda line: line[:-1] + "\x0c\n",
    lambda line: line + "\n",
    lambda line: line + "% note\n",
    lambda line: line[:-1] + " 7\n",
    lambda line: line.rsplit(" ", 1)[0] + "\n",
    lambda line: line.replace(" ", ".5 "),
    lambda line: line[:-1] + ".5\n",
    lambda line: line.replace(" ", "e0 ", 1),
    lambda line: "+" + line,
)

# Every (layout, field, symmetry) the reader accepts.
_HEADERS = (
    ("coordinate", "real", "general"),
    ("coordinate", "real", "symmetric"),
    ("coordinate", "pattern", "general"),
    ("coordinate", "pattern", "symmetric"),
    ("array", "real", "general"),
    ("array", "real", "symmetric"),
)


def _fuzz_file(rng, layout, field, symmetry):
    # One file of plain lines, with one thing bent in five of eight: an
    # odd value, an odd line, an index out of range, an odd header or no
    # final LF.  Coordinate files repeat a cell, or its mirror, in half of
    # them, up to four times.
    m, n = (int(d) for d in rng.integers(1, 5, size=2))
    if symmetry == "symmetric":
        n = m
    if layout == "array":
        count = m * n if symmetry == "general" else m * (m + 1) // 2
        size = f"{m} {n}"
        line = "{v}\n"
    else:
        count = int(rng.integers(1, 8))
        size = f"{m} {n} {count}"
        line = "{i} {j} {v}\n" if field == "real" else "{i} {j}\n"
    draw = rng.integers(len(_PLAIN_VALUES), size=count)
    values = [_PLAIN_VALUES[int(k)](rng) for k in draw]
    lines = [line] * count
    rows = [int(i) for i in rng.integers(1, m + 1, size=count)]
    cols = [int(j) for j in rng.integers(1, n + 1, size=count)]
    if layout == "coordinate" and rng.integers(2):
        for spot in rng.integers(count, size=3):
            rows[spot], cols[spot] = (
                (rows[0], cols[0]) if rng.integers(2) else (cols[0], rows[0])
            )
    spot = int(rng.integers(count))
    kind = int(rng.integers(8))
    if kind == 1:
        values[spot] = str(rng.choice(_ODD_VALUES))
    elif kind == 2:
        lines[spot] = _ODD_LINES[int(rng.integers(len(_ODD_LINES)))](line)
    elif kind == 3 and layout == "coordinate":
        rows[spot] = int(rng.choice([0, m + 1, 2**31 + 1, 2**64 + 1]))
    elif kind == 3:
        lines[spot] = ""
    banner = f"%%MatrixMarket matrix {layout} {field} {symmetry}"
    head = f"{banner}\n{size}\n"
    if kind == 4:
        spaced = size.replace(" ", "\t", 1)
        head = str(rng.choice([
            f"{banner}\n% c\n\n{size}\n",
            f"{banner}\r\n{size}\r\n",
            f"{banner}\r{size}\n",
            f"{banner}\n  {spaced} \n",
            f"{banner}\n{size} 1\n",
            f"{banner}\n{m + 1} {size.split(' ', 1)[1]}\n",
            f"{banner.title()}\n{size[:-1]}0{size[-1]}\n",
        ]))
    body = "".join(
        line.format(i=i, j=j, v=v) for line, i, j, v in zip(lines, rows, cols, values)
    )
    if kind == 5:
        body = body[:-1]
    return (head + body).encode("utf-8")


# Each grammar the guard checks, stated apart from it as a regular
# expression of one entry line, by (layout, field).
_VALUE = rb"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_LINE_PATTERNS = {
    ("coordinate", "real"): rb"[0-9]+ [0-9]+ " + _VALUE + rb"\n",
    ("coordinate", "pattern"): rb"[0-9]+ [0-9]+\n",
    ("array", "real"): _VALUE + rb"\n",
}

# Bytes a mutation writes: those of plain text and some that are not.
_MUTANTS = b"0123456789 \n.e+-Ex_\t\r\x80"


def _mutated_block(rng, spaces, real) -> bytes:
    # One to four lines of a grammar's text, then up to three bytes
    # replaced, inserted or deleted; never empty.
    def number():
        return str(rng.integers(0, 10 ** int(rng.integers(1, 4))))

    def value():
        whole, part = number(), number()
        token = str(rng.choice([whole, whole + ".", whole + "." + part, "." + part]))
        if rng.integers(2):
            token += "e" + str(rng.choice(["", "+", "-"])) + number()
        return token

    lines = (
        " ".join([number() for _ in range(spaces)] + [value() if real else number()])
        + "\n"
        for _ in range(rng.integers(1, 5))
    )
    block = bytearray("".join(lines).encode())
    for _ in range(rng.integers(4)):
        spot = int(rng.integers(len(block) + 1))
        byte = _MUTANTS[rng.integers(len(_MUTANTS))]
        kind = rng.integers(3)
        if kind == 0 and spot < len(block):
            block[spot] = byte
        elif kind == 1:
            block.insert(spot, byte)
        elif spot < len(block) and len(block) > 1:
            del block[spot]
    return bytes(block)


class TestFastParse:
    """The tier that hands plain coordinate files to scipy's compiled reader."""

    @pytest.fixture
    def tiers(self, monkeypatch):
        # The names of the tiers called, in order.
        calls = []
        for name in ("mmread", "_read_by_lines"):
            inner = getattr(mmio, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(mmio, name, counted)
        return calls

    def test_fuzz_equals_line_reader(self, tmp_path, monkeypatch, tiers):
        # Guard blocks of a line or two, so that the files, of a few
        # lines each, are checked in several blocks, and split between
        # 1, 2 and 3 workers: the tier and the bits are the same at each.
        monkeypatch.setattr(mmio, "_GUARD_BLOCK", 24)
        rng = np.random.default_rng(11)
        path = tmp_path / "f.mtx"
        for header in _HEADERS:
            served = 0
            for _ in range(300):
                text = _fuzz_file(rng, *header)
                path.write_bytes(text)
                want = _outcome(mmio._read_by_lines, text)
                taken = set()
                for workers in (1, 2, 3):
                    monkeypatch.setattr(matrix, "_worker_count", lambda w=workers: w)
                    tiers.clear()
                    assert _outcome(read_matrix_market, path) == want, (workers, text)
                    taken.add(tuple(tiers))
                assert len(taken) == 1, (taken, text)
                served += taken == {("mmread",)}
            # Both sides of the guard are exercised for every header.
            assert 80 < served < 220, header

    @pytest.mark.parametrize("block", [mmio._GUARD_BLOCK, 64])
    def test_written_file_takes_fast_tier(self, tmp_path, monkeypatch, tiers, block):
        monkeypatch.setattr(mmio, "_GUARD_BLOCK", block)
        shares, run = [], matrix._run_shares
        monkeypatch.setattr(
            matrix,
            "_run_shares",
            lambda task, s, w: shares.append(min(w, len(s))) or run(task, s, w),
        )
        rng = np.random.default_rng(4)
        rows, cols = np.nonzero(rng.random((50, 40)) < 0.2)
        vals = rng.random(rows.size) * 10.0 ** rng.integers(-300, 300, size=rows.size)
        vals[:3] = [0.0, 5e-324, 1e300]
        path = tmp_path / "w.mtx"
        dense = np.zeros((50, 40))
        dense[rows, cols] = vals
        for written in (
            SparseMatrixCSR.from_coo(50, 40, rows, cols, vals),
            DenseMatrix(dense),
        ):
            write_matrix_market(written, path)
            want = _outcome(mmio._read_by_lines, path.read_bytes())
            for workers in (1, 2, 3):
                monkeypatch.setattr(matrix, "_worker_count", lambda w=workers: w)
                tiers.clear()
                shares.clear()
                got = _outcome(read_matrix_market, path)
                assert tiers == ["mmread"]
                assert got == want
                # The guard's blocks, hundreds at 64 bytes and one at the
                # default size, are taken by every worker, or by one; the
                # screen of the values read, one chunk, by one.
                assert shares == [workers if block == 64 else 1, 1]

    @pytest.mark.parametrize("layout", ["coordinate", "array"])
    def test_mmwrite_file_takes_fast_tier(self, tmp_path, tiers, layout):
        # scipy's writer spells exponents with an upper-case E (scipy
        # 1.17 writes 9.691483800703944E-2), which the guard admits as 'e'.
        rng = np.random.default_rng(8)
        a = rng.random((30, 20)) * 10.0 ** rng.integers(-300, 300, size=(30, 20))
        a[rng.random(a.shape) < 0.7] = 0.0
        path = tmp_path / "w.mtx"
        mmwrite(path, coo_array(a) if layout == "coordinate" else a)
        want = _outcome(mmio._read_by_lines, path.read_bytes())
        tiers.clear()
        assert _outcome(read_matrix_market, path) == want
        assert tiers == ["mmread"]

    def test_lone_cr_file_takes_line_reader(self, tmp_path, tiers):
        # No LF at all, so counting LFs cannot find where the entries
        # start; the line reader splits the lines at each CR.
        text = _GENERAL + b"% c\n2 2 2\n1 1 0.5\n2 2 1e-300\n"
        path = tmp_path / "cr.mtx"
        path.write_bytes(text.replace(b"\n", b"\r"))
        got = _outcome(read_matrix_market, path)
        assert tiers == ["_read_by_lines"]
        assert got == _outcome(mmio._read_by_lines, text)

    def test_declined_block_stops_the_guard(self, tmp_path, monkeypatch, tiers):
        # A file of hundreds of 64-byte guard blocks whose first entry line
        # ends in CR LF: the first block is declined, and no share starts
        # after it, so each worker checks at most one block before the
        # line reader takes the file.  A long switch interval keeps the
        # GIL with the thread checking a block until it is done.
        monkeypatch.setattr(mmio, "_GUARD_BLOCK", 64)
        calls, plain_lines = [], mmio._plain_lines
        monkeypatch.setattr(
            mmio, "_plain_lines", lambda *args: calls.append(1) or plain_lines(*args)
        )
        rng = np.random.default_rng(6)
        rows, cols = np.nonzero(rng.random((50, 40)) < 0.2)
        path = tmp_path / "crlf.mtx"
        written = SparseMatrixCSR.from_coo(50, 40, rows, cols, rng.random(rows.size))
        write_matrix_market(written, path)
        lines = path.read_bytes().split(b"\n")
        size = next(i for i, ln in enumerate(lines) if i and not ln.startswith(b"%"))
        lines[size + 1] += b"\r"
        text = b"\n".join(lines)
        path.write_bytes(text)
        want = _outcome(mmio._read_by_lines, text)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(matrix, "_worker_count", lambda w=workers: w)
                calls.clear()
                tiers.clear()
                assert _outcome(read_matrix_market, path) == want
                assert tiers == ["_read_by_lines"]
                assert 1 <= len(calls) <= workers, (workers, len(calls))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("grammar", list(_LINE_PATTERNS), ids="-".join)
    def test_guard_equals_grammar(self, grammar):
        # mmio._plain_lines against the regular expression of its grammar,
        # on seeded mutations of plain blocks: the line count when the
        # whole block is lines of the grammar, else 0.
        spaces, legal = mmio._GRAMMARS[grammar]
        lines = re.compile(rb"(?:" + _LINE_PATTERNS[grammar] + rb")+")
        rng = np.random.default_rng(17 + spaces)
        accepted = 0
        for _ in range(6000):
            block = _mutated_block(rng, spaces, real=grammar[1] == "real")
            want = block.count(b"\n") if lines.fullmatch(block) else 0
            got = mmio._plain_lines(np.frombuffer(block, np.uint8), spaces, legal)
            assert got == want, block
            accepted += want > 0
        # Both answers are exercised.
        assert 1200 < accepted < 4800, accepted

    @pytest.mark.parametrize(
        "rest",
        [
            "\n2 2 1\n1 2.5 1.0\n",
            "\n2 2 1\n1 1 1-2\n",
            "\n2 2 1\n1 1 1e\n",
            "\n2 2 1\n1 1 1.0e5e5\n",
            "\n2 2 1\n1 1 1_0\n",
            "\n2 2 1\n1 1 0x1p0\n",
            "\n2 2 1\n1 1 1.0 7\n",
            "\n2 2 1\n1 1 .\n",
            "\n2 2 1\n1 1 .e5\n",
            "\n2 2 1\n1 1 1e5+3\n",
            "\n2 2 1\n1 1 1.5.\n",
            "\n2 2 1\n1 1 1e-5.\n",
            "\n2 2 1\n 1 1 1.0\n",
            "\n2 2 1\n 1 1\n",
            "\n2 2 1\n1 1 1.0\n7",
            "\n2 2 2\n1 1 1 7\n2 2\n",
            "\n2 2 2\n1 1\n2 2 1.0\n",
            "\n2 2 1\n1 1 1.0\n\n",
            "\n2 2 1\n1 1 1.0\n2 2 1.0\n",
            "\n2 2 1\n1 1 1.0\n2 2 1.0",
            "\n2 2 2\n1 1 1.0\n2 2 1.0",
            "\r2 2 1\n1 1 1.0\n2 2 1.0\n",
        ],
    )
    def test_lenient_text_declines_fast_tier(self, tmp_path, tiers, rest):
        # ``rest`` follows the banner: the size line and the entries.
        path = tmp_path / "l.mtx"
        path.write_bytes(_GENERAL.rstrip(b"\n") + rest.encode())
        got = _outcome(read_matrix_market, path)
        assert "mmread" not in tiers
        assert got == _outcome(mmio._read_by_lines, path.read_bytes())

    @pytest.mark.parametrize(
        "text, tier",
        [
            pytest.param(
                _SYMMETRIC + b"2 2 3\n1 1 1.0\n2 1 0.5\n1 2 0.25\n",
                "mmread",
                id="real-symmetric",
            ),
            pytest.param(
                b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n",
                "mmread",
                id="pattern-general",
            ),
            pytest.param(
                b"%%MatrixMarket matrix coordinate pattern symmetric\n"
                b"2 2 2\n2 1\n2 2\n",
                "mmread",
                id="pattern-symmetric",
            ),
            pytest.param(
                b"%%MatrixMarket matrix array real general\n2 1\n1.0\n.5e-3\n",
                "mmread",
                id="array-general",
            ),
            pytest.param(
                b"%%MatrixMarket matrix array real symmetric\n2 2\n1\n2.\n3e+0\n",
                "mmread",
                id="array-symmetric",
            ),
            pytest.param(_GENERAL + b"2 2 0\n", "_read_by_lines", id="no-entries"),
            pytest.param(
                b"%%MatrixMarket matrix array real general\n0 3\n",
                "_read_by_lines",
                id="empty-array",
            ),
        ],
    )
    def test_tier_routing(self, tmp_path, tiers, text, tier):
        # Plain files of every layout take the compiled tier alone; files
        # without entries go to the line reader alone.
        path = tmp_path / "o.mtx"
        path.write_bytes(text)
        got = _outcome(read_matrix_market, path)
        assert tiers == [tier]
        assert got == _outcome(mmio._read_by_lines, path.read_bytes())

    @pytest.mark.parametrize("order", ["sorted", "shuffled", "repeated"])
    def test_sorted_entries_need_no_sort(self, tmp_path, monkeypatch, tiers, order):
        # Row-major entries with no cell repeated are built into CSR
        # without scipy's COO sort; any other order, or a repeated cell,
        # takes it.  The bits are scipy's conversion's of the same triples.
        rng = np.random.default_rng(8)
        rows, cols = np.nonzero(rng.random((40, 30)) < 0.2)
        vals = rng.random(rows.size)
        if order == "shuffled":
            turn = rng.permutation(rows.size)
            rows, cols, vals = rows[turn], cols[turn], vals[turn]
        elif order == "repeated":
            rows, cols = np.insert(rows, 9, rows[9]), np.insert(cols, 9, cols[9])
            vals = np.insert(vals, 9, 0.75)
        path = tmp_path / "s.mtx"
        entries = zip(rows.tolist(), cols.tolist(), vals.tolist())
        path.write_bytes(
            _GENERAL
            + f"40 30 {rows.size}\n".encode()
            + "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in entries).encode()
        )
        sorts, to_coo = [], matrix.coo_array
        monkeypatch.setattr(
            matrix,
            "coo_array",
            lambda *args, **kw: sorts.append(order) or to_coo(*args, **kw),
        )
        got = read_matrix_market(path)
        assert tiers == ["mmread"]
        assert sorts == ([] if order == "sorted" else [order])
        want = to_coo((vals, (rows, cols)), shape=(40, 30)).tocsr()
        for name, held, dtype in (
            ("row_offsets", "indptr", np.int64),
            ("col_indices", "indices", np.int64),
            ("values", "data", np.float64),
        ):
            a, b = getattr(got, name), getattr(want, held).astype(dtype)
            assert a.dtype == dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            _GENERAL + b"2 2 2\n1 1 1.0\n2 2 1e400\n",
            b"%%MatrixMarket matrix array real general\n2 1\n1.0\n1e400\n",
        ],
        ids=["coordinate", "array"],
    )
    def test_overflow_named_by_line_reader(self, tmp_path, tiers, text):
        # Plain text holds no sign, so the one bad value the compiled tier
        # can parse is one that overflows to inf.  The tier hands the file
        # on, and the line reader names the line.
        path = tmp_path / "o.mtx"
        path.write_bytes(text)
        with pytest.raises(MatrixMarketError, match="^line 4: non-finite value$"):
            read_matrix_market(path)
        assert tiers == ["mmread", "_read_by_lines"]

    @pytest.mark.parametrize(
        "value", [-0.0, 1e200, np.nan, np.inf, -np.inf, -1.0],
        ids=["minus_zero", "overflowing", "nan", "inf", "minus_inf", "negative"],
    )
    def test_array_tier_shares_the_screen(self, tmp_path, monkeypatch, tiers, value):
        # The compiled tier checks an array file's values with the screen
        # the CSR constructor and fit use, split between 1, 2 and 3
        # workers: six chunks of one value give each of three two chunks.
        # Plain text holds no sign, NaN or infinity, so the value is put
        # into the compiled reader's result: -0.0 and 1e200, whose square
        # overflows, are kept; any other declines the file to the line
        # reader, which reads the file's own 0.
        monkeypatch.setattr(matrix, "_SCREEN_CHUNK", 1)
        read = mmio.mmread

        def poked(source):
            parsed = read(source)
            parsed[1, 0] = value
            return parsed

        monkeypatch.setattr(mmio, "mmread", poked)
        path = tmp_path / "a.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix array real general\n6 1\n0.5\n0\n.25\n1\n2\n3\n"
        )
        kept = value == 0.0 or value == 1e200
        for workers in (1, 2, 3):
            monkeypatch.setattr(matrix, "_worker_count", lambda w=workers: w)
            tiers.clear()
            got = read_matrix_market(path).data
            assert tiers == (["mmread"] if kept else ["mmread", "_read_by_lines"])
            want = np.array([[0.5], [value if kept else 0.0], [0.25], [1.0], [2.0], [3.0]])
            assert got.tobytes() == want.tobytes()

    def test_compiled_tier_skips_the_ascii_scan(self, tmp_path, monkeypatch, tiers):
        # A file the compiled tier accepts is ASCII: its header lines were
        # decoded as ASCII and the guard admits no byte above 0x7F.  Only
        # the line reader scans the whole file, before it parses a line.
        scans, scan = [], mmio._check_ascii
        monkeypatch.setattr(
            mmio, "_check_ascii", lambda text: scans.append(len(text)) or scan(text)
        )
        path = tmp_path / "p.mtx"
        for text, route in (
            (_PLAIN_COORDINATE, ["mmread"]),
            (_PLAIN_COORDINATE.replace(b"\n", b"\r\n"), ["_read_by_lines"]),
        ):
            path.write_bytes(text)
            tiers.clear()
            scans.clear()
            read_matrix_market(path)
            assert tiers == route
            assert scans == ([] if route == ["mmread"] else [len(text)])

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                _GENERAL + b"4611686018427387904 3 1\n1 1 \xe9\n",
                "line 3: non-ASCII byte 0xe9",
                id="oversized",
            ),
            pytest.param(
                _GENERAL.replace(b"general", b"generax") + b"2 2 1\n1 1 \xe9\n",
                "line 3: non-ASCII byte 0xe9",
                id="bad-banner",
            ),
            pytest.param(
                _GENERAL + b"% caf\xc3\xa9\n2 2 1\n1 1 \xe9\n",
                "line 2: non-ASCII byte 0xc3",
                id="undecodable-header",
            ),
        ],
    )
    def test_non_ascii_named_before_a_header_fault(
        self, tmp_path, tiers, text, message
    ):
        # A header that fails to parse, or to decode, hands the file to the
        # line reader, which names the first non-ASCII byte first.
        path = tmp_path / "n.mtx"
        path.write_bytes(text)
        with pytest.raises(MatrixMarketError) as caught:
            read_matrix_market(path)
        assert str(caught.value) == message
        assert tiers == ["_read_by_lines"]

    def test_overflow_named_at_every_worker_count(self, tmp_path, monkeypatch, tiers):
        # An array file's 1e999 reads as inf in the compiled tier, whose
        # screen, split or not, hands the file to the line reader.  Six
        # chunks of one value are split between every worker count.
        monkeypatch.setattr(matrix, "_SCREEN_CHUNK", 1)
        path = tmp_path / "o.mtx"
        path.write_bytes(
            b"%%MatrixMarket matrix array real general\n6 1\n1\n2\n1e999\n3\n4\n5\n"
        )
        for workers in (1, 2, 3):
            monkeypatch.setattr(matrix, "_worker_count", lambda w=workers: w)
            tiers.clear()
            with pytest.raises(MatrixMarketError, match="^line 5: non-finite value$"):
                read_matrix_market(path)
            assert tiers == ["mmread", "_read_by_lines"]

    def test_read_peak_rss(self, tmp_path):
        # tracemalloc cannot see the compiled reader's own buffers, so the
        # peak resident size of a child process that reads a file is
        # compared with that of one that does not.
        rng = np.random.default_rng(5)
        rows, cols = np.nonzero(rng.random((3000, 2000)) < 0.05)
        a = SparseMatrixCSR.from_coo(3000, 2000, rows, cols, rng.random(rows.size))
        path = tmp_path / "rss.mtx"
        write_matrix_market(a, path)
        script = (
            "import resource, sys\n"
            "from arknls import read_matrix_market\n"
            "if sys.argv[1] == 'read':\n"
            "    read_matrix_market(sys.argv[2])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peak_kb = {
            mode: int(
                subprocess.run(
                    [sys.executable, "-c", script, mode, str(path)],
                    env=env, capture_output=True, text=True, check=True, timeout=120,
                ).stdout
            )
            for mode in ("skip", "read")
        }
        grown = 1024 * (peak_kb["read"] - peak_kb["skip"])
        # Measured: 3.0x the file size for this 8.7 MB file and 2.8x for a
        # 15.4 MB one, the file's bytes held until the reader returns.
        assert grown <= 4 * path.stat().st_size


# Sorted, without repeats, and larger than a pipe's buffer.
_PLAIN_COORDINATE = _GENERAL + b"400 300 12000\n" + b"".join(
    b"%d %d %d.25\n" % (e // 30 + 1, e % 300 + 1, e) for e in range(12000)
)

# One file for each route through read_matrix_market, and its error.
_ROUTES = (
    pytest.param(_PLAIN_COORDINATE, None, id="plain-coordinate"),
    pytest.param(
        b"%%MatrixMarket matrix array real general\n2 1\n1.0\n.5e-3\n",
        None,
        id="plain-array",
    ),
    pytest.param(_PLAIN_COORDINATE.replace(b"\n", b"\r\n"), None, id="crlf"),
    pytest.param(_GENERAL + b"2 2 0\n", None, id="no-entries"),
    pytest.param(
        _GENERAL + b"2 2 2\n1 1 1.0\n2 x 1.0\n",
        "line 4: malformed entry",
        id="malformed",
    ),
    # A non-ASCII byte within the first 8192 bytes, which a text decoder
    # reads at once, and one past them: both are named before the banner.
    pytest.param(
        _GENERAL + b"2 2 1\n1 1 \xe9\n", "line 3: non-ASCII byte 0xe9", id="non-ascii"
    ),
    pytest.param(
        _GENERAL + b"2 2 2001\n" + b"1 1 1.0\n" * 2000 + b"1 1 \xe9\n",
        "line 2003: non-ASCII byte 0xe9",
        id="late-non-ascii",
    ),
)


def _read_piped(text):
    # read_matrix_market('/dev/stdin') in a child process whose stdin is a
    # pipe fed ``text``: returns its result, or raises its exception.
    script = (
        "import pickle, sys\n"
        "from arknls import read_matrix_market\n"
        "try:\n"
        "    got = read_matrix_market('/dev/stdin')\n"
        "except Exception as err:\n"
        "    got = err\n"
        "sys.stdout.buffer.write(pickle.dumps(got))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=text, env=env, capture_output=True, check=True, timeout=120,
    )
    got = pickle.loads(done.stdout)
    if isinstance(got, Exception):
        raise got
    return got


class TestSingleRead:
    """The file is opened once, and every tier and error read its bytes."""

    @pytest.mark.parametrize("text, error", _ROUTES)
    def test_one_open(self, tmp_path, monkeypatch, text, error):
        path = tmp_path / "o.mtx"
        path.write_bytes(text)
        opened = []
        monkeypatch.setattr(
            mmio,
            "open",
            lambda *args, **kwargs: opened.append(args) or open(*args, **kwargs),
            raising=False,
        )
        got = _outcome(read_matrix_market, path)
        assert opened == [(path, "rb")]
        if error is None:
            assert got[0] is not MatrixMarketError
        else:
            assert got == (MatrixMarketError, error)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("text, error", _ROUTES)
    def test_pipe_reads_as_file(self, tmp_path, text, error):
        path = tmp_path / "p.mtx"
        path.write_bytes(text)
        want = _outcome(read_matrix_market, path)
        assert _outcome(_read_piped, text) == want


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

    def test_dense_bytes_do_not_depend_on_memory_order(self, tmp_path, monkeypatch):
        # gen_dense's matrices are row-major, a converted input's
        # column-major: both write the same file, and neither is copied
        # whole into the format's column order.
        monkeypatch.setattr(mmio, "_WRITE_CHUNK", 100)
        a = np.random.default_rng(5).random((300, 200))
        written = []
        for order in "CF":
            held = DenseMatrix(np.require(a, requirements=order))
            path = tmp_path / order
            tracemalloc.start()
            try:
                write_matrix_market(held, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < a.nbytes / 4, (order, peak)
            written.append(path.read_bytes())
        assert written[0] == written[1]


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
        # Every row is checked before the file is opened, so a rejected
        # trace leaves an existing file's bytes as they were.
        path = tmp_path / "kept.csv"
        write_trace_csv([(1, 0.5, 0.9), (2, 0.7, 0.8)], path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-decreasing"):
            write_trace_csv([(1, 1.0, 0.5), (2, 0.5, 0.4)], path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,0.5,0.9\n2,0.7\n", "line 3: expected 3 fields, found 2"),
            ("1,0.5,0.9,4\n", "line 2: expected 3 fields, found 4"),
            ("1,0.5,0.9\n\n2,0.25,0.8\n", "line 4: elapsed_s must be non-decreasing"),
            ("1.5,0.5,0.9\n", "line 2: malformed row"),
        ],
    )
    def test_read_rejects_bad_rows(self, tmp_path, rows, message):
        path = tmp_path / "t.csv"
        path.write_text("sweep,elapsed_s,rel_residual\n" + rows)
        with pytest.raises(ValueError) as caught:
            read_trace_csv(path)
        assert str(caught.value) == message
