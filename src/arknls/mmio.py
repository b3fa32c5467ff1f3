"""Matrix Market text I/O and the solve-trace CSV format.

Dense matrices use the ``array real general`` format (values listed column
by column) and sparse matrices the ``coordinate real general`` format with
1-based, row-major sorted indices.  ``pattern`` entries read as 1.0 and
``symmetric`` storage is expanded on read.  Integer and complex fields are
rejected rather than coerced, as are negative values: the reader's output
feeds a nonnegative factorization.

The reader opens the file once and reads its bytes once; pipes such as
``/dev/stdin`` therefore read as files do.  It parses the banner and the
size line from those bytes, then tries two tiers for the entry lines on
the same bytes, the second only when the first declined:

1. Files whose entry text is plain, one line per entry (``v LF`` for
   ``array real``, ``i SP j SP v LF`` for ``coordinate real`` and
   ``i SP j LF`` for ``coordinate pattern``, general or symmetric), are
   parsed by scipy's compiled reader (``scipy.io.mmread``,
   fast_matrix_market), which also expands symmetric storage.  A
   byte-level guard proves the text plain before that call, because the
   compiled reader accepts some text ``int``/``float`` reject or read
   differently (``1.0e5e5``, ``1_0``, ``0x1p0``, a fourth field).  The
   guard checks blocks of whole lines in numpy passes, which release the
   GIL, so each block is a share that whichever of the CPUs the process
   may use is free takes next (all on the calling thread on one CPU).  The
   result's shape and entry count are checked here, its values by the
   screen the CSR constructor and fits use (``matrix._screen``: finite,
   nonnegative); scipy's reader checks the index range itself.
   Coordinate entries become CSR by ``SparseMatrixCSR.from_coo``, as the
   line reader's do, without a sort when they are in row-major order.
2. A line-at-a-time reader takes every other file, a file whose header
   does not parse among them; it names the line at fault, a non-ASCII
   byte first, for which it alone scans the whole file, and it alone
   accepts comment lines between entries, tabs, CRLF line ends and other
   lenient text.

Both tiers return the same bits for the same file; a dense result is row-major.
"""

from __future__ import annotations

import io
import math
import warnings
from array import array
from typing import NamedTuple

import numpy as np
from scipy.io import mmread

from . import matrix
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


class _Header(NamedTuple):
    layout: str
    field: str
    symmetry: str
    size_no: int
    dims: tuple


def read_matrix_market(path) -> MatrixRef:
    """Parse a Matrix Market file into a dense or sparse matrix.

    The file is opened once and its bytes read once, so a pipe or FIFO
    (``/dev/stdin``, ``<(zcat a.mtx.gz)``) reads as the file would, and
    every tier and error below works from the same bytes.  A non-ASCII
    byte is reported first, by its line, before the banner is read: the
    line reader scans the whole file for one before it parses a line, and
    it takes every file whose header does not parse or decode as ASCII.
    The compiled tier needs no scan, since its guard admits no byte above
    0x7F.  The banner and the size line are parsed line by line; a row or
    column count that no int64 index holds, or a coordinate file's row
    offsets that numpy refuses to allocate, raises a
    :class:`MatrixMarketError` naming the size line.  A file with at
    least one entry whose entry lines are all plain text (``v``, ``i j v``
    or ``i j`` by layout and field: single spaces, LF line ends,
    digit-only indices, and values of digits with at most one dot and an
    ``e`` or ``E`` exponent, unsigned) is parsed by scipy's compiled
    Matrix Market reader, and its result is checked as whole arrays:
    shape and entry count, and values finite and nonnegative by the one
    screen that the CSR constructor and :func:`arknls.fit` use too.  Any
    other file, or one that fails a check, is read one line at a time.
    That pass raises a :class:`MatrixMarketError` naming the offending
    line, or returns the matrix for text only it accepts, such as comment
    lines between entries.  Both give the same bits for the same file.
    """
    with open(path, "rb") as handle:
        text = handle.read()
    try:
        plain = _read_plain(text, _read_header(_lines(text))[0])
    except (MatrixMarketError, UnicodeDecodeError):
        # The line reader names a non-ASCII byte first, then the fault.
        plain = None
    return _read_by_lines(text) if plain is None else plain


def _lines(text):
    # (1-based number, line) pairs of the bytes ``text``, split as a file
    # opened in text mode splits them, at a lone CR too.  A non-ASCII byte
    # raises UnicodeDecodeError once a line in its chunk is read.
    return enumerate(io.TextIOWrapper(io.BytesIO(text), encoding="ascii"), start=1)


def _check_ascii(text) -> None:
    # Names the first non-ASCII byte of ``text`` by its line.  Latin-1
    # maps each byte to one character and splits lines as the ASCII reader
    # does, so the line numbers agree.
    if not text.isascii():
        lines = io.TextIOWrapper(io.BytesIO(text), encoding="latin-1")
        no, line = next((no, ln) for no, ln in enumerate(lines, 1) if not ln.isascii())
        byte = next(ord(c) for c in line if ord(c) > 0x7F)
        raise _fail(no, f"non-ASCII byte 0x{byte:02x}")


def _read_header(numbered):
    # Parses the banner and the size line from (line number, raw line)
    # pairs; returns the header and the iterator over the entry lines.
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
    parts = size_text.split()
    if layout == "coordinate" and len(parts) != 3:
        raise _fail(size_no, "coordinate size line must be 'rows cols nnz'")
    if layout == "array" and len(parts) != 2:
        raise _fail(size_no, "array size line must be 'rows cols'")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise _fail(size_no, "size line entries must be integers") from None
    if min(dims) < 0:
        raise _fail(size_no, "size line entries must be nonnegative")
    if max(dims[:2]) > np.iinfo(np.int64).max:
        raise _fail(size_no, "dimensions must fit a 64-bit index")
    if layout == "coordinate":
        # The m + 1 row offsets of the CSR matrix, which either tier
        # allocates once the entries are read; refused here, before that.
        try:
            np.empty(dims[0] + 1, dtype=np.int64)
        except (MemoryError, ValueError):
            raise _fail(size_no, f"cannot allocate {dims[0]} rows") from None
    if symmetry == "symmetric" and dims[0] != dims[1]:
        raise _fail(size_no, "symmetric matrix must be square")
    return _Header(layout, field, symmetry, size_no, dims), entries


# Classes of the bytes of plain entry text that are not digits.  The guard
# codes each non-digit byte as class * 2, plus 1 when the byte before it is
# a non-digit too: twelve codes.  This bytes.translate table gives class * 2.
_LF, _SP, _DOT, _EXP, _SIGN, _OTHER = range(6)
_CLASSES = dict(zip(b"\n .eE+-", (_LF, _SP, _DOT, _EXP, _EXP, _SIGN, _SIGN)))
_CODE = bytes(2 * _CLASSES.get(byte, _OTHER) for byte in range(256))


def _legal_steps(spaces: int, real: bool) -> dict:
    # The steps from one non-digit byte of a plain entry line to the next,
    # and whether digits lie between the two: True (some), False (none) or
    # None (either).  A line is ``spaces`` fields 'digits SP', then the last
    # field: digits in a pattern file, else value = mantissa [e [sign]
    # digits] with mantissa = digits [. digits] or . digits; that a dot has
    # a digit on at least one side is left to _legal_pairs.  The last field's
    # steps start from the byte before it, SP or the previous line's LF.
    before = _SP if spaces else _LF
    steps = {(before, _LF): True}
    if spaces:
        steps[_LF, _SP] = True
    if spaces > 1:
        steps[_SP, _SP] = True
    if real:
        steps.update({
            (before, _EXP): True,
            (before, _DOT): None,
            (_DOT, _EXP): None,
            (_DOT, _LF): None,
            (_EXP, _SIGN): False,
            (_EXP, _LF): True,
            (_SIGN, _LF): True,
        })
    return steps


def _legal_pairs(spaces: int, real: bool) -> bytes:
    # The legal pairs of consecutive non-digit codes, of the 144, each coded
    # as code * 12 + next code: a step of _legal_steps with the digits
    # between the two that it allows, unless the first is a dot that follows
    # a non-digit and the second follows the dot (no digit beside the dot).
    steps = _legal_steps(spaces, real)
    return bytes(
        here * 12 + following
        for here in range(12)
        for following in range(12)
        if (here // 2, following // 2) in steps
        and steps[here // 2, following // 2] in (None, not following % 2)
        and not (here == 2 * _DOT + 1 and following % 2)
    )


# Per (layout, field): the spaces in a plain entry line, 'v LF',
# 'i SP j SP v LF' or 'i SP j LF', and the legal pairs of its grammar.
_GRAMMARS = {
    ("array", "real"): (0, _legal_pairs(0, real=True)),
    ("coordinate", "real"): (2, _legal_pairs(2, real=True)),
    ("coordinate", "pattern"): (1, _legal_pairs(1, real=False)),
}


def _read_plain(text, header):
    # Parses the file's bytes ``text`` with scipy's compiled reader once
    # _plain_entries has proved its entry text plain.  Returns None, for the
    # line reader, on a file without entries, on any other text, failure
    # or failed check.
    array_layout = header.layout == "array"
    count = _array_count(header) if array_layout else header.dims[2]
    if count == 0:
        return None
    start = _entry_offset(text, header.size_no)
    grammar = _GRAMMARS[header.layout, header.field]
    if start is None or not _plain_entries(text, start, count, *grammar):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # The bytes just checked.  (No spmatrix= keyword: scipy 1.12
            # lacks it; a coo_matrix serves.)
            parsed = mmread(io.BytesIO(text))
        except (ValueError, OverflowError, RuntimeError, Warning):
            return None
    # The compiled reader checks the index range itself, against the
    # shape it read; the shape must be the one read here.
    m, n = header.dims[:2]
    if parsed.shape != (m, n):
        return None
    if array_layout:
        if matrix._screen(parsed.ravel(order="K"), nonnegative=True)[1]:
            return None
        # Held in mmread's C order, as the line reader builds its result.
        return DenseMatrix(parsed)
    entries = count
    if header.symmetry == "symmetric":
        # mmread appends the mirror of each off-diagonal entry after all
        # the file's entries.
        entries += np.count_nonzero(parsed.row[:count] != parsed.col[:count])
    if parsed.nnz != entries:
        return None
    # from_coo sorts a symmetric file's entries, as mmread lists the mirrors
    # last.  The guard admits no sign: a summed duplicate hides no negative.
    try:
        return SparseMatrixCSR.from_coo(m, n, parsed.row, parsed.col, parsed.data)
    except ValueError:
        return None


def _entry_offset(text, size_no):
    # Offset of the first byte after the size line (line ``size_no``), or
    # None when the header has a CR: the text reader splits lines at a
    # lone CR too, so counting LFs would misplace the entries.
    end = -1
    for _ in range(size_no):
        end = text.find(b"\n", end + 1)
        if end < 0:
            return None
    return None if text.find(b"\r", 0, end) >= 0 else end + 1


# Bytes of entry text the guard checks at a time: its working arrays stay a
# small fraction of a large file, and in cache.
_GUARD_BLOCK = 1 << 18


def _plain_entries(text, start, count, spaces, legal) -> bool:
    # True when text[start:] is exactly ``count`` lines of plain entry text
    # with ``spaces`` spaces each and the ``legal`` pairs of _legal_pairs,
    # so that scipy's reader, int() and float() read each token alike.
    # Checks blocks of whole lines, each a share that whichever of the
    # CPUs the process may use is free takes next (numpy releases the GIL
    # in its passes); one CPU or one block runs on the calling thread.
    bounds = [start]
    while bounds[-1] < len(text):
        end = text.find(b"\n", bounds[-1] + _GUARD_BLOCK)
        bounds.append(len(text) if end < 0 else end + 1)
    blocks = list(zip(bounds, bounds[1:]))

    def block_lines(span):
        lo, hi = span
        block = np.frombuffer(text, dtype=np.uint8, count=hi - lo, offset=lo)
        lines = _plain_lines(block, spaces, legal)
        if not lines:
            raise _Declined
        return lines

    try:
        lines = matrix._run_shares(block_lines, blocks, matrix._worker_count())
    except _Declined:
        return False
    return sum(lines) == count


class _Declined(Exception):
    """A guard block that is not plain entry text: no share starts after it."""


def _plain_lines(block, spaces_per_line, legal) -> int:
    # The number of lines in ``block`` (uint8) when it is whole lines of
    # plain entry text, else 0.  Looks at the non-digit bytes only: the
    # code of each, and each pair of consecutive codes.
    if block[-1] != ord("\n"):
        return 0
    # Passes write over their input where they can: with fewer large
    # temporaries the heap gives fewer pages back between blocks, and the
    # guard measured faster.
    digits = np.subtract(block, ord("0"), dtype=np.uint8)
    non_digit = np.greater(digits, 9, out=digits.view(np.bool_))
    where = np.flatnonzero(non_digit)
    codes = np.frombuffer(block[where].tobytes().translate(_CODE), dtype=np.uint8)
    # The byte before each; at index 0 it wraps to the block's final LF,
    # which stands for the line end before the first line.
    where -= 1
    codes = codes + non_digit[where]
    pairs = np.empty_like(codes)
    np.multiply(codes[:-1], 12, out=pairs[1:])
    pairs[1:] += codes[1:]
    # The final LF comes before the first code too.
    pairs[0] = codes[-1] * 12 + codes[0]
    classes = codes >> 1
    lines = np.count_nonzero(classes == _LF)
    spaces = classes == _SP
    plain = (
        np.count_nonzero(spaces) == spaces_per_line * lines
        # Delete every legal pair: nothing may remain.
        and not pairs.tobytes().translate(None, legal)
        # Only a two-space grammar allows SP SP.  With two spaces per line
        # on average and none with three: two each.
        and not (spaces[:-2] & spaces[1:-1] & spaces[2:]).any()
    )
    return lines if plain else 0


def _read_by_lines(text) -> MatrixRef:
    # The line-at-a-time reader of the file's bytes ``text``: the reference
    # for the compiled tier and the path that reports a malformed line by
    # its number, a non-ASCII byte first, wherever it sits.
    _check_ascii(text)
    header, entries = _read_header(_lines(text))
    if header.layout == "coordinate":
        return _read_coordinate(entries, header)
    return _read_array(entries, header)


def _read_coordinate(entries, header):
    m, n, nnz = header.dims
    field, symmetric = header.field, header.symmetry == "symmetric"
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
        count += 1
    if count != nnz:
        raise _fail(header.size_no, f"declared {nnz} entries, found {count}")
    rows = np.frombuffer(rows, dtype=np.int64)
    cols = np.frombuffer(cols, dtype=np.int64)
    vals = np.frombuffer(vals, dtype=np.float64)
    if symmetric:
        # Each off-diagonal entry's mirror, appended after all the file's
        # entries in file order as mmread does, so that from_coo sums a
        # cell's copies in the same order on both tiers.
        off = rows != cols
        rows, cols, vals = (
            np.concatenate((rows, cols[off])),
            np.concatenate((cols, rows[off])),
            np.concatenate((vals, vals[off])),
        )
    return SparseMatrixCSR.from_coo(m, n, rows, cols, vals)


def _read_array(entries, header):
    expected = _array_count(header)
    values = array("d")
    last_no = header.size_no
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
    return _dense(np.frombuffer(values, dtype=np.float64), header)


def _array_count(header) -> int:
    m, n = header.dims
    return m * n if header.symmetry == "general" else m * (m + 1) // 2


def _dense(values, header):
    # Lays out the values, listed column by column, in a row-major array,
    # as mmread does; symmetric storage lists the lower triangle.
    m, n = header.dims
    if header.symmetry == "general":
        return DenseMatrix(np.ascontiguousarray(values.reshape((m, n), order="F")))
    out = np.zeros((m, n))
    pos = 0
    for j in range(n):
        span = m - j
        col = values[pos : pos + span]
        out[j:, j] = col
        out[j, j:] = col
        pos += span
    return DenseMatrix(out)


# Entries formatted per write call: large enough to amortize the call,
# small enough that the file's text is never held at once.
_WRITE_CHUNK = 65536


def write_matrix_market(matrix: MatrixRef, path) -> None:
    """Canonical output: sorted coordinates, 17 significant digit values."""
    with open(path, "w", encoding="ascii") as handle:
        if isinstance(matrix, DenseMatrix):
            handle.write("%%MatrixMarket matrix array real general\n")
            handle.write(f"{matrix.rows} {matrix.cols}\n")
            values = matrix.data.T.flat  # column by column, never copied whole
            for start in range(0, matrix.data.size, _WRITE_CHUNK):
                chunk = values[start : start + _WRITE_CHUNK].tolist()
                handle.write("".join([f"{v:.17g}\n" for v in chunk]))
        else:
            # A no-op on CSR; the CSC transposed view becomes sorted CSR.
            csr = matrix.sp.tocsr()
            handle.write("%%MatrixMarket matrix coordinate real general\n")
            handle.write(f"{matrix.rows} {matrix.cols} {csr.nnz}\n")
            rows = np.repeat(np.arange(1, matrix.rows + 1), np.diff(csr.indptr))
            cols, values = csr.indices, csr.data
            for start in range(0, csr.nnz, _WRITE_CHUNK):
                part = slice(start, start + _WRITE_CHUNK)
                chunk = zip(
                    rows[part].tolist(),
                    (cols[part] + 1).tolist(),
                    values[part].tolist(),
                )
                handle.write("".join([f"{i} {j} {v:.17g}\n" for i, j, v in chunk]))


class TraceRow(NamedTuple):
    sweep: int
    elapsed_s: float
    rel_residual: float


def write_trace_csv(trace, path) -> None:
    """Serialize a solve trace (or any iterable of rows) to CSV.

    Header is exactly ``sweep,elapsed_s,rel_residual``; floats carry 10
    significant digits.  The elapsed column must be non-decreasing.  Every
    row is checked and formatted before ``path`` is opened, so a rejected
    trace leaves an existing file as it was.
    """
    rows = trace.records() if hasattr(trace, "records") else list(trace)
    if not rows:
        raise ValueError("refusing to write an empty trace")
    if any(now[1] < before[1] for before, now in zip(rows, rows[1:])):
        raise ValueError("elapsed_s must be non-decreasing")
    text = "".join(f"{int(sweep)},{t:.10g},{res:.10g}\n" for sweep, t, res in rows)
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(TRACE_HEADER + "\n" + text)


def read_trace_csv(path) -> list[TraceRow]:
    """Parse a trace CSV in the format :func:`write_trace_csv` writes.

    A row without exactly three fields, with a field that does not parse,
    or with an ``elapsed_s`` below the previous row's raises
    ``ValueError`` naming its 1-based line.
    """
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"expected header '{TRACE_HEADER}'")
    out = []
    for no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {no}: expected 3 fields, found {len(fields)}")
        try:
            row = TraceRow(int(fields[0]), float(fields[1]), float(fields[2]))
        except ValueError:
            raise ValueError(f"line {no}: malformed row") from None
        if out and row.elapsed_s < out[-1].elapsed_s:
            raise ValueError(f"line {no}: elapsed_s must be non-decreasing")
        out.append(row)
    return out
