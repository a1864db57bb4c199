"""The line-by-line MatrixMarket parser cgkit used before it read files with
``scipy.io.mmread``.

Tests keep it as the reference the SciPy-backed
:func:`cgkit.problems_io.read_matrix_market` is compared with: on valid
files both give the same matrix, and on a malformed file both raise the
same error type at the same line, apart from the stricter rejections the
reader documents.  ``read_reference`` takes the file's text.
"""

from __future__ import annotations

import io
import re

import numpy as np
import scipy.sparse as _sparse

from cgkit import MatrixMarketError, MatrixSPD, spd_validate


def read_reference(text: str) -> MatrixSPD:
    """Parse ``text`` line by line, then certify it as SPD."""
    matrix = _parse_matrix_market(io.StringIO(text))
    spd_validate(matrix)
    return matrix


def _parse_matrix_market(stream) -> MatrixSPD:
    header = stream.readline()
    if not header:
        raise MatrixMarketError("empty input", line=1)
    parts = _fields(header)
    if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise MatrixMarketError(
            "header must read '%%MatrixMarket matrix <format> <field> <symmetry>'",
            line=1)
    fmt, fieldspec, symmetry = (p.lower() for p in parts[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {fmt!r}", line=1)
    if fieldspec not in ("real", "integer"):
        raise MatrixMarketError(
            f"unsupported field {fieldspec!r}; only real-valued matrices are accepted",
            line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", line=1)

    lineno = 1
    size_parts = None
    while True:
        line = stream.readline()
        if not line:
            raise MatrixMarketError("missing size line", line=lineno)
        lineno += 1
        size_parts = _fields(line)
        if not size_parts or size_parts[0].startswith("%"):
            continue
        # the size line's fields are whole numbers, as an entry's indices
        # are: int alone would also read '+2', '2_0' and other digits
        if not all(re.fullmatch(r"-?[0-9]+", p) for p in size_parts):
            text = line.strip(" \t\r\n")
            raise MatrixMarketError(f"malformed number in {text!r}", line=lineno)
        break

    if fmt == "coordinate":
        return _parse_coordinate(stream, size_parts, symmetry, lineno)
    return _parse_array(stream, size_parts, symmetry, lineno)


def _fields(line: str) -> list[str]:
    """The fields of a header or size line, split at an entry's separators
    only (space, tab, CR): any other character, U+00A0 or U+3000 too, is
    part of a field."""
    return re.findall(r"[^ \t\r\n]+", line)


def _parse_coordinate(stream, size_parts, symmetry, lineno) -> MatrixSPD:
    if len(size_parts) != 3:
        raise MatrixMarketError("coordinate size line must be 'rows cols nnz'",
                                line=lineno)
    try:
        rows, cols, nnz = (int(p) for p in size_parts)
    except ValueError as err:
        raise MatrixMarketError(f"bad size line: {err}", line=lineno) from None
    if rows != cols:
        raise MatrixMarketError(f"matrix must be square, got {rows}x{cols}",
                                line=lineno)
    ii = np.empty(nnz, dtype=np.int64)
    jj = np.empty(nnz, dtype=np.int64)
    vv = np.empty(nnz, dtype=np.float64)
    seen = 0
    while seen < nnz:
        line = stream.readline()
        if not line:
            raise MatrixMarketError(
                f"expected {nnz} entries, found {seen}", line=lineno)
        lineno += 1
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                f"entry must be 'row col value', got {text!r}", line=lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as err:
            raise MatrixMarketError(f"bad entry: {err}", line=lineno) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(
                f"index ({i}, {j}) outside 1..{rows}", line=lineno)
        ii[seen], jj[seen], vv[seen] = i - 1, j - 1, v
        seen += 1
    if symmetry == "symmetric":
        off = ii != jj  # mirror off-diagonal entries into the other triangle
        ii, jj, vv = (np.concatenate([ii, jj[off]]),
                      np.concatenate([jj, ii[off]]),
                      np.concatenate([vv, vv[off]]))
    coo = _sparse.coo_matrix((vv, (ii, jj)), shape=(rows, rows)).tocsr()
    return MatrixSPD.from_csr(coo.indptr, coo.indices, coo.data, rows)


def _parse_array(stream, size_parts, symmetry, lineno) -> MatrixSPD:
    if len(size_parts) != 2:
        raise MatrixMarketError("array size line must be 'rows cols'", line=lineno)
    try:
        rows, cols = (int(p) for p in size_parts)
    except ValueError as err:
        raise MatrixMarketError(f"bad size line: {err}", line=lineno) from None
    if rows != cols:
        raise MatrixMarketError(f"matrix must be square, got {rows}x{cols}",
                                line=lineno)
    # array format lists values column-major; symmetric files store the
    # lower triangle of each column only
    if symmetry == "symmetric":
        expected = rows * (rows + 1) // 2
    else:
        expected = rows * cols
    values = np.empty(expected, dtype=np.float64)
    seen = 0
    while seen < expected:
        line = stream.readline()
        if not line:
            raise MatrixMarketError(
                f"expected {expected} values, found {seen}", line=lineno)
        lineno += 1
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        for token in text.split():
            if seen >= expected:
                raise MatrixMarketError("more values than the size line declares",
                                        line=lineno)
            try:
                values[seen] = float(token)
            except ValueError as err:
                raise MatrixMarketError(f"bad value: {err}", line=lineno) from None
            seen += 1
    if symmetry == "symmetric":
        a = np.empty((rows, rows), dtype=np.float64)
        pos = 0
        for j in range(rows):
            count = rows - j
            a[j:, j] = values[pos:pos + count]
            a[j, j:] = values[pos:pos + count]
            pos += count
    else:
        a = values.reshape((rows, rows), order="F")
    return MatrixSPD.from_dense(a)
