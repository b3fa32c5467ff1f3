"""Matrix Market text I/O and the solve-trace CSV format.

Dense matrices use the ``array real general`` format (values listed column
by column) and sparse matrices the ``coordinate real general`` format with
1-based, row-major sorted indices.  ``pattern`` entries read as 1.0 and
``symmetric`` storage is expanded on read.  Integer and complex fields are
rejected rather than coerced, as are negative values: the reader's output
feeds a nonnegative factorization.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

import numpy as np

from .matrix import DenseMatrix, MatrixRef, SparseMatrixCSR

__all__ = [
    "MatrixMarketError",
    "read_matrix_market",
    "write_matrix_market",
    "TraceRow",
    "write_trace_csv",
    "read_trace_csv",
]

_BANNER = "%%matrixmarket"
TRACE_HEADER = "sweep,elapsed_s,rel_residual"


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message carries a line number."""


def _fail(line_no: int, message: str) -> "MatrixMarketError":
    return MatrixMarketError(f"line {line_no}: {message}")


def _data_lines(numbered):
    # Yields (1-based line number, stripped text) from the (number, raw
    # line) pairs after the banner, skipping comments and blank lines;
    # returns the number of the last line read.
    no = 1
    for no, raw in numbered:
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        yield no, text
    return no


def read_matrix_market(path) -> MatrixRef:
    """Parse a Matrix Market file into a dense or sparse matrix.

    The file is read one line at a time and the entries are gathered in
    typed arrays, so the peak memory is a small multiple of the entry
    count rather than of the file's text.
    """
    with open(path, "r", encoding="ascii") as handle:
        return _read(enumerate(handle, start=1))


def _read(numbered):
    first = next(numbered, None)
    if first is None:
        raise _fail(1, "empty file")
    header = first[1].strip().lower().split()
    if len(header) != 5 or header[0] != _BANNER or header[1] != "matrix":
        raise _fail(1, "expected '%%MatrixMarket matrix <format> <field> <symmetry>'")
    layout, field, symmetry = header[2], header[3], header[4]
    if layout not in ("array", "coordinate"):
        raise _fail(1, f"unsupported format '{layout}'")
    if field not in ("real", "pattern"):
        raise _fail(1, f"unsupported field '{field}' (only real and pattern)")
    if symmetry not in ("general", "symmetric"):
        raise _fail(1, f"unsupported symmetry '{symmetry}'")
    if layout == "array" and field == "pattern":
        raise _fail(1, "pattern field is only valid for coordinate format")

    entries = _data_lines(numbered)
    try:
        size_no, size_text = next(entries)
    except StopIteration as end:
        raise _fail(end.value, "missing size line") from None

    if layout == "coordinate":
        return _read_coordinate(entries, size_no, size_text, field, symmetry)
    return _read_array(entries, size_no, size_text, symmetry)


def _read_coordinate(entries, size_no, size_text, field, symmetry):
    parts = size_text.split()
    if len(parts) != 3:
        raise _fail(size_no, "coordinate size line must be 'rows cols nnz'")
    try:
        m, n, nnz = (int(p) for p in parts)
    except ValueError:
        raise _fail(size_no, "size line entries must be integers") from None
    if symmetry == "symmetric" and m != n:
        raise _fail(size_no, "symmetric matrix must be square")
    want = 3 if field == "real" else 2
    rows, cols, vals = array("q"), array("q"), array("d")
    count = 0
    for no, text in entries:
        parts = text.split()
        if len(parts) != want:
            raise _fail(no, f"expected {want} fields per entry")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2]) if field == "real" else 1.0
        except ValueError:
            raise _fail(no, "malformed entry") from None
        if not 1 <= i <= m or not 1 <= j <= n:
            raise _fail(no, f"index ({i}, {j}) out of range for {m} x {n}")
        if v < 0.0:
            raise _fail(no, f"negative value {v} not allowed")
        if not math.isfinite(v):
            raise _fail(no, "non-finite value")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
        count += 1
    if count != nnz:
        raise _fail(size_no, f"declared {nnz} entries, found {count}")
    return SparseMatrixCSR.from_coo(
        m,
        n,
        np.frombuffer(rows, dtype=np.int64),
        np.frombuffer(cols, dtype=np.int64),
        np.frombuffer(vals, dtype=np.float64),
    )


def _read_array(entries, size_no, size_text, symmetry):
    parts = size_text.split()
    if len(parts) != 2:
        raise _fail(size_no, "array size line must be 'rows cols'")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise _fail(size_no, "size line entries must be integers") from None
    if symmetry == "symmetric" and m != n:
        raise _fail(size_no, "symmetric matrix must be square")
    expected = m * n if symmetry == "general" else m * (m + 1) // 2
    values = array("d")
    last_no = size_no
    for no, text in entries:
        for token in text.split():
            try:
                v = float(token)
            except ValueError:
                raise _fail(no, f"malformed value '{token}'") from None
            if v < 0.0:
                raise _fail(no, f"negative value {v} not allowed")
            if not math.isfinite(v):
                raise _fail(no, "non-finite value")
            values.append(v)
        last_no = no
    if len(values) != expected:
        raise _fail(last_no, f"expected {expected} values, found {len(values)}")
    values = np.frombuffer(values, dtype=np.float64)
    out = np.zeros((m, n), order="F")
    if symmetry == "general":
        out[:, :] = values.reshape((m, n), order="F")
    else:
        pos = 0
        for j in range(n):
            span = m - j
            col = values[pos : pos + span]
            out[j:, j] = col
            out[j, j:] = col
            pos += span
    return DenseMatrix(out)


def write_matrix_market(matrix: MatrixRef, path) -> None:
    """Canonical output: sorted coordinates, 17 significant digit values."""
    with open(path, "w", encoding="ascii") as handle:
        if isinstance(matrix, DenseMatrix):
            handle.write("%%MatrixMarket matrix array real general\n")
            handle.write(f"{matrix.rows} {matrix.cols}\n")
            for v in matrix.data.ravel(order="F"):
                handle.write(f"{v:.17g}\n")
        else:
            handle.write("%%MatrixMarket matrix coordinate real general\n")
            handle.write(f"{matrix.rows} {matrix.cols} {matrix.nnz}\n")
            offsets = matrix.row_offsets
            for i in range(matrix.rows):
                for pos in range(offsets[i], offsets[i + 1]):
                    handle.write(
                        f"{i + 1} {matrix.col_indices[pos] + 1} "
                        f"{matrix.values[pos]:.17g}\n"
                    )


class TraceRow(NamedTuple):
    sweep: int
    elapsed_s: float
    rel_residual: float


def write_trace_csv(trace, path) -> None:
    """Serialize a solve trace (or any iterable of rows) to CSV.

    Header is exactly ``sweep,elapsed_s,rel_residual``; floats carry 10
    significant digits.  The elapsed column must be non-decreasing.
    """
    rows = trace.records() if hasattr(trace, "records") else list(trace)
    if not rows:
        raise ValueError("refusing to write an empty trace")
    previous = None
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(TRACE_HEADER + "\n")
        for sweep, elapsed, residual in rows:
            if previous is not None and elapsed < previous:
                raise ValueError("elapsed_s must be non-decreasing")
            previous = elapsed
            handle.write(f"{int(sweep)},{elapsed:.10g},{residual:.10g}\n")


def read_trace_csv(path) -> list[TraceRow]:
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"expected header '{TRACE_HEADER}'")
    out = []
    for line in lines[1:]:
        if not line:
            continue
        sweep, elapsed, residual = line.split(",")
        out.append(TraceRow(int(sweep), float(elapsed), float(residual)))
    return out
