"""Test-problem factory, MatrixMarket input/output, trace and report files.

Scalar serialization contract: every float is written so it round-trips to
the identical 64-bit value (``%.17g`` in text columns, shortest-exact repr
in JSON documents).
"""

from __future__ import annotations

import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Iterable

import numpy as np
import scipy.sparse as _sparse

from .cg import IterationTrace, QuadraticProblem, SolverConfig
from .errors import CgKitError, MatrixMarketError, ProblemSpecError
from .linalg import (MatrixSPD, SpectrumSpec, as_vector, dot, generate_spd,
                     spd_validate)
from .verify import CheckResult, VerificationReport

__all__ = [
    "BuiltinProblemSpec",
    "builtin_problem",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector_file",
    "write_vector_file",
    "TraceDocument",
    "write_trace",
    "read_trace",
    "report_to_dict",
    "report_from_dict",
    "BUILTIN_FAMILIES",
]

BUILTIN_FAMILIES = ("laplacian1d", "hilbert", "diagonal", "random_spd")
B_MODES = ("ones", "random", "from_known_solution")
HILBERT_MAX_ORDER = 12

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# builtin problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltinProblemSpec:
    """Recipe for a generated test problem.

    Families:

    * ``laplacian1d`` - tridiagonal (2 on the diagonal, -1 off), CSR storage;
    * ``hilbert``     - H_ij = 1/(i+j-1), dense; n is capped at 12 because
      the conditioning grows past float64 usefulness beyond that;
    * ``diagonal``    - diag(eigenvalues), CSR storage;
    * ``random_spd``  - dense matrix from :func:`~cgkit.linalg.generate_spd`
      with the given spectrum and seed.

    The linear term is selected by ``b_mode``: a vector of ones, a seeded
    standard-normal draw, or ``b = -A x*`` so that ``known_solution`` is the
    exact minimizer.
    """

    family: str
    n: int
    eigenvalues: tuple[float, ...] | None = None
    spectrum: SpectrumSpec | None = None
    seed: int = 0
    b_mode: str = "ones"
    b_seed: int = 0
    known_solution: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in BUILTIN_FAMILIES:
            raise ProblemSpecError(
                f"unknown family {self.family!r}; expected one of {BUILTIN_FAMILIES}")
        if self.n < 1:
            raise ProblemSpecError("n must be at least 1")
        if self.family == "hilbert" and self.n > HILBERT_MAX_ORDER:
            raise ProblemSpecError(
                f"hilbert problems are restricted to n <= {HILBERT_MAX_ORDER}")
        if self.family == "diagonal":
            if self.eigenvalues is None:
                raise ProblemSpecError("diagonal problems need an eigenvalue list")
            vals = tuple(float(v) for v in self.eigenvalues)
            if len(vals) != self.n:
                raise ProblemSpecError(
                    f"diagonal problem of order {self.n} got {len(vals)} eigenvalues")
            if any(v <= 0.0 for v in vals):
                raise ProblemSpecError("diagonal entries must be strictly positive")
            object.__setattr__(self, "eigenvalues", vals)
        if self.family == "random_spd" and self.spectrum is None:
            raise ProblemSpecError("random_spd problems need a SpectrumSpec")
        if self.b_mode not in B_MODES:
            raise ProblemSpecError(
                f"unknown b_mode {self.b_mode!r}; expected one of {B_MODES}")
        if self.b_mode == "from_known_solution":
            if self.known_solution is None:
                raise ProblemSpecError("b_mode=from_known_solution needs known_solution")
            sol = tuple(float(v) for v in self.known_solution)
            if len(sol) != self.n:
                raise ProblemSpecError("known_solution length must equal n")
            object.__setattr__(self, "known_solution", sol)

    def describe(self) -> dict[str, Any]:
        """JSON-ready description for trace metadata."""
        out: dict[str, Any] = {"family": self.family, "n": self.n}
        if self.eigenvalues is not None:
            out["eigenvalues"] = list(self.eigenvalues)
        if self.spectrum is not None:
            s = self.spectrum
            out["spectrum"] = {
                "eigenvalues": list(s.eigenvalues) if s.eigenvalues else None,
                "lam_min": s.lam_min, "lam_max": s.lam_max,
                "distribution": s.distribution, "clusters": s.clusters,
            }
            out["seed"] = self.seed
        out["b_mode"] = self.b_mode
        if self.b_mode == "random":
            out["b_seed"] = self.b_seed
        if self.known_solution is not None:
            out["known_solution"] = list(self.known_solution)
        return out


def _laplacian1d(n: int) -> MatrixSPD:
    if n == 1:
        return MatrixSPD.from_csr([0, 1], [0], [2.0], 1)
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    m = _sparse.diags([off, main, off], offsets=(-1, 0, 1), format="csr")
    return MatrixSPD.from_csr(m.indptr, m.indices, m.data, n)


def _hilbert(n: int) -> MatrixSPD:
    i = np.arange(1, n + 1)
    h = 1.0 / (i[:, None] + i[None, :] - 1.0)
    return MatrixSPD.from_dense(h)


def _diagonal(values: Iterable[float]) -> MatrixSPD:
    vals = np.asarray(tuple(values), dtype=np.float64)
    n = vals.size
    indptr = np.arange(n + 1, dtype=np.int64)
    indices = np.arange(n, dtype=np.int64)
    return MatrixSPD.from_csr(indptr, indices, vals, n)


def builtin_problem(spec: BuiltinProblemSpec) -> QuadraticProblem:
    """Materialize a builtin problem family into a validated problem."""
    if spec.family == "laplacian1d":
        a = _laplacian1d(spec.n)
    elif spec.family == "hilbert":
        a = _hilbert(spec.n)
    elif spec.family == "diagonal":
        a = _diagonal(spec.eigenvalues)
    else:
        a = generate_spd(spec.n, spec.spectrum, spec.seed)

    if spec.b_mode == "ones":
        b = np.ones(spec.n)
    elif spec.b_mode == "random":
        b = np.random.default_rng(spec.b_seed).standard_normal(spec.n)
    else:
        x_star = np.asarray(spec.known_solution, dtype=np.float64)
        b = -a.matvec(x_star)
    return QuadraticProblem(a, b)


# ---------------------------------------------------------------------------
# MatrixMarket
# ---------------------------------------------------------------------------

@contextmanager
def _open_text(source, mode: str):
    """Yield a text stream for a path, text stream, or binary stream.

    Paths are opened and closed here; caller-owned streams are left open
    (binary ones are wrapped for the duration and detached afterwards so
    the caller's handle survives).  Files are ASCII; a byte outside it
    reads as U+FFFD, which no number holds, so it is reported at its line
    unless it sits in a comment.
    """
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="ascii", errors="replace") as stream:
            yield stream
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        wrapper = io.TextIOWrapper(source, encoding="ascii", errors="replace",
                                   write_through=True)
        try:
            yield wrapper
        finally:
            wrapper.detach()


def read_matrix_market(source) -> MatrixSPD:
    """Read a real MatrixMarket file into a validated SPD matrix.

    Accepts coordinate and array formats.  Files declared ``symmetric`` may
    store one triangle; off-diagonal entries are mirrored.  Files declared
    ``general`` must turn out symmetric (checked at construction).  The
    result additionally passes :func:`~cgkit.linalg.spd_validate`.

    ``scipy.io.mmread`` reads the entries after cgkit has checked the file
    against the dialect it accepts: comment (``%``) and blank lines
    anywhere, one entry per line (``row col value``, or one value for
    array files), fields separated by spaces or tabs, each field a whole
    number (an optional ``-``, digits with at most one ``.``, an optional
    exponent; or inf, infinity, nan), and nothing after the declared
    entries.  Entries are ASCII.  Malformed content raises
    :class:`MatrixMarketError` with the 1-based line number; unsupported
    fields (complex, pattern) and symmetries (skew-symmetric, hermitian)
    are rejected the same way.
    """
    with _open_text(source, "r") as stream:
        fmt, symmetry = _parse_header(stream.readline())
        n, parsed = _read_entries(stream, fmt, symmetry)
    if fmt == "coordinate":
        parsed = parsed.tocsr()
        matrix = MatrixSPD.from_csr(parsed.indptr, parsed.indices, parsed.data, n)
    else:
        matrix = MatrixSPD.from_dense(parsed)
    spd_validate(matrix)
    return matrix


def _read_entries(stream, fmt: str, symmetry: str):
    """Order and SciPy's reading of the lines after the header: a COO
    matrix for coordinate files, an array for array files."""
    import scipy.io  # costly import, needed only here

    lineno = 1
    while True:
        line = stream.readline()
        if not line:
            raise MatrixMarketError("missing size line", line=lineno)
        lineno += 1
        size_parts = line.split()
        if size_parts and not size_parts[0].startswith("%"):
            break
    n, entries = _parse_size_line(size_parts, fmt, symmetry, lineno)

    # SciPy is handed a canonical header and size line: a "real" field,
    # because it reads an integer field's "2.5" as 2.  Comment lines
    # become blank ones, which SciPy skips and still counts.
    head = f"%%MatrixMarket matrix {fmt} real {symmetry}\n" + "\n" * (lineno - 2)
    head += f"{n} {n} {entries}\n" if fmt == "coordinate" else f"{n} {n}\n"
    body = stream.read()
    if body and not body.endswith("\n"):
        body += "\n"
    data = (head + body).encode("ascii", "replace")
    del body  # the file is held once, as bytes
    if data.find(b"%", len(head)) >= 0:
        data = _COMMENT_LINE.sub(b"\n", data)
    _check_entries(np.frombuffer(data, dtype=np.uint8, offset=len(head)),
                   3 if fmt == "coordinate" else 1, entries, lineno + 1)
    try:
        return n, scipy.io.mmread(io.BytesIO(data))
    except (ValueError, OverflowError) as err:
        located = _SCIPY_LINE.fullmatch(str(err))
        if located is None:
            raise MatrixMarketError(str(err)) from None
        raise MatrixMarketError(located[2], line=int(located[1])) from None


_COMMENT_LINE = re.compile(rb"\n[ \t\r]*%[^\n]*")
_SCIPY_LINE = re.compile(r"Line (\d+): (.*)", re.DOTALL)
# A field's shape, byte by byte: a digit is '0', a letter a number may hold
# is folded to lower case, space, tab and CR separate fields, LF ends a
# line, and any other byte is '?'.
_SHAPE = np.full(256, ord("?"), dtype=np.uint8)
_SHAPE[list(b"0123456789")] = ord("0")
_SHAPE[list(b"+-.eEiInNfFaAtTyY")] = list(b"+-.eeiinnffaattyy")
_SHAPE[list(b" \t\r")] = ord(" ")
_SHAPE[ord("\n")] = ord("\n")
# The shapes, after an optional '-' and with each run of digits one '0', of
# the numbers SciPy reads whole, as words (see _check_entries).  Of any
# other field SciPy reads the longest number prefix ("1.2.3" as 1.2, "1nan"
# as 1) or rejects it ("+1").  The index fields take the same shapes:
# SciPy itself rejects an index that is a number but not an integer.
_NUMBER_SHAPES = np.array(
    [int.from_bytes(mantissa + exponent, "little")
     for mantissa in (b"0", b"0.", b".0", b"0.0")
     for exponent in (b"", b"e0", b"e+0", b"e-0")]
    + [int.from_bytes(word, "little") for word in (b"inf", b"infinity", b"nan")],
    dtype=np.uint64)


def _parse_header(header: str) -> tuple[str, str]:
    if not header:
        raise MatrixMarketError("empty input", line=1)
    parts = header.strip().split()
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
    return fmt, symmetry


def _parse_size_line(parts, fmt, symmetry, lineno) -> tuple[int, int]:
    """Order and number of entries.  Checked here, not by SciPy, which
    kills the interpreter (SIGFPE) on an array file of order 0."""
    layout = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    if len(parts) != len(layout.split()):
        raise MatrixMarketError(f"{fmt} size line must be '{layout}'", line=lineno)
    try:
        rows, cols, *nnz = (int(p) for p in parts)
    except ValueError as err:
        raise MatrixMarketError(f"bad size line: {err}", line=lineno) from None
    if rows != cols:
        raise MatrixMarketError(f"matrix must be square, got {rows}x{cols}",
                                line=lineno)
    if rows < 1:
        raise MatrixMarketError(f"matrix order must be at least 1, got {rows}",
                                line=lineno)
    if nnz:
        if nnz[0] < 0:
            raise MatrixMarketError(f"negative entry count {nnz[0]}", line=lineno)
        return rows, nnz[0]
    # array files list values column-major; symmetric ones store the lower
    # triangle of each column only
    return rows, rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * rows


def _check_entries(body: np.ndarray, width: int, entries: int, first_line: int) -> None:
    """Reject the data lines SciPy would misread.

    ``body`` is the text after the size line as bytes, ending in a newline,
    with comment lines blank; its first line is line ``first_line``.  Each
    non-blank line must hold ``width`` fields, each a number of one of the
    ``_NUMBER_SHAPES``, and there must be ``entries`` such lines.  SciPy
    ignores extra fields ("1 1 2.0 7"), reads a value by its longest number
    prefix ("2,5", "0.1-100", "1.2.3") and zero-fills a truncated array
    file.  The first offending line is reported.
    """
    # the body's shape, each run of digits kept as its first digit
    digit = (body - np.uint8(48)) < 10
    keep = np.ones(body.size, dtype=bool)
    keep[1:] = ~(digit[1:] & digit[:-1])
    del digit
    shape = _SHAPE[body[keep]]
    del keep
    newlines = np.flatnonzero(shape == 10)
    inside = np.zeros(shape.size + 1, dtype=bool)  # after a separator: the body opens a line
    np.greater(shape, 32, out=inside[1:])
    starts = np.flatnonzero(inside[1:] & ~inside[:-1])
    del inside
    fields = np.diff(np.searchsorted(starts, newlines), prepend=0)
    problems = []
    wrong = np.flatnonzero((fields != 0) & (fields != width))
    if wrong.size:
        layout = "'row col value'" if width == 3 else "one value"
        problems.append((wrong[0], f"entry must be {layout}, "
                                   f"got {fields[wrong[0]]} fields"))
    # Each field's shape after its sign, as a word of up to 8 bytes, the
    # first the lowest.  Most fields are one run of digits, a number, and
    # are passed over; a field ends at the latest at the body's final LF.
    starts += (shape[starts] == ord("-")) & (shape[1:][starts] > 32)  # '-' and more
    odd = np.flatnonzero((shape[starts] != ord("0")) | (shape[1:][starts] > 32))
    at = starts[odd]
    words = np.zeros(odd.size, dtype=np.uint64)
    pending = np.arange(odd.size)
    for k in range(8):
        byte = shape[at[pending] + k]
        more = byte > 32
        pending = pending[more]
        words[pending] |= byte[more].astype(np.uint64) << np.uint64(8 * k)
    words[pending[shape[at[pending] + 8] > 32]] = 0  # no number's shape has 9 bytes
    malformed = odd[~np.isin(words, _NUMBER_SHAPES)]
    if malformed.size:
        line = np.searchsorted(newlines, starts[malformed[0]])
        text = body.tobytes().split(b"\n")[line].strip().decode("ascii")
        problems.append((line, f"malformed number in {text!r}"))
    data_lines = np.flatnonzero(fields)
    if data_lines.size > entries:
        problems.append((data_lines[entries],
                         f"more entries than the {entries} the size line declares"))
    elif data_lines.size < entries:
        problems.append((newlines.size - 1,
                         f"expected {entries} entries, found {data_lines.size}"))
    if problems:
        index, message = min(problems)
        raise MatrixMarketError(message, line=first_line + int(index))


def write_matrix_market(a: MatrixSPD, target, *, fmt: str | None = None) -> None:
    """Write ``a`` as a MatrixMarket file.

    Default format follows storage: coordinate-symmetric (lower triangle)
    for CSR, array-general for dense.  Values use 17 significant digits so
    they round-trip exactly.
    """
    if fmt is None:
        fmt = "coordinate" if a.storage == "csr" else "array"
    if fmt not in ("coordinate", "array"):
        raise ValueError(f"unknown MatrixMarket format {fmt!r}")
    with _open_text(target, "w") as stream:
        if fmt == "coordinate":
            ii, jj, values = _lower_triangle(a)
            stream.write("%%MatrixMarket matrix coordinate real symmetric\n")
            stream.write(f"{a.n} {a.n} {ii.size}\n")
            for i, j, v in zip(ii.tolist(), jj.tolist(), values.tolist()):
                stream.write(f"{i + 1} {j + 1} {_FMT % v}\n")
        else:
            dense = a.to_dense()
            stream.write("%%MatrixMarket matrix array real general\n")
            stream.write(f"{a.n} {a.n}\n")
            for j in range(a.n):
                for i in range(a.n):
                    stream.write(f"{_FMT % dense[i, j]}\n")


def _lower_triangle(a: MatrixSPD) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries with i >= j in row-major order: (rows, columns, values).

    CSR storage is read as stored (column indices sorted within each row),
    never densified.
    """
    if a.storage == "dense":
        dense = a.to_dense()
        rows, cols = np.nonzero(dense)
        values = dense[rows, cols]
    else:
        indptr, cols, values = a.csr_arrays
        rows = np.repeat(np.arange(a.n), np.diff(indptr))
    keep = (cols <= rows) & (values != 0.0)
    return rows[keep], cols[keep], values[keep]


def write_vector_file(v, target) -> None:
    """One decimal per line, 17 significant digits (exact round-trip)."""
    v = as_vector(v, name="vector")
    with _open_text(target, "w") as stream:
        for value in v:
            stream.write(f"{_FMT % value}\n")


def read_vector_file(source) -> np.ndarray:
    """Read a one-number-per-line vector file ('#'/'%' lines are comments)."""
    values = []
    with _open_text(source, "r") as stream:
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith(("#", "%")):
                continue
            try:
                values.append(float(text))
            except ValueError as err:
                raise MatrixMarketError(f"bad vector entry: {err}",
                                        line=lineno) from None
    return np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# trace and report documents
# ---------------------------------------------------------------------------

TRACE_FORMAT = "cg-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceDocument:
    """Self-describing solve record ready for serialization.

    ``iterations`` holds per-iteration scalars (always); ``vectors`` holds
    the per-iteration vectors only when requested, since they dominate file
    size for large problems.  The final iterate is always included: it is
    the answer.
    """

    metadata: dict[str, Any]
    iterations: list[dict[str, Any]]
    final: dict[str, Any]
    vectors: list[dict[str, Any]] | None = None
    verification: dict[str, Any] | None = None

    @classmethod
    def from_solve(cls, problem: QuadraticProblem, config: SolverConfig,
                   trace: IterationTrace, *,
                   problem_description: dict[str, Any] | None = None,
                   report: VerificationReport | None = None,
                   include_vectors: bool = False,
                   timestamp: bool = True) -> "TraceDocument":
        metadata: dict[str, Any] = {
            "problem": problem_description or {"n": problem.n,
                                               "storage": problem.A.storage},
            "config": {
                "stepsize_rule": config.stepsize_rule.value,
                "beta_rule": config.beta_rule.value,
                "gradient_update": config.gradient_update.value,
                "max_iterations": config.max_iterations,
            },
            "grad_tolerance": trace.grad_tolerance,
            "package_version": _package_version(),
        }
        if timestamp:
            metadata["created"] = datetime.now(timezone.utc).isoformat()
        iterations = []
        for rec in trace.records:
            iterations.append({
                "k": rec.k,
                "alpha": rec.alpha,
                "beta": rec.beta,
                "grad_norm": rec.grad_norm(),
                # f(x) = x.(g + b) / 2 since g = A x + b: the recorded
                # gradient saves a matvec per record
                "objective": 0.5 * dot(rec.x, rec.g + problem.b),
            })
        final = {
            "iterations": trace.terminated_at,
            "termination_reason": trace.termination_reason.value,
            "grad_norm": trace.final_grad_norm(),
            "objective": problem.objective(trace.final_x),
            "x": [float(v) for v in trace.final_x],
        }
        if trace.breakdown:
            final["breakdown"] = trace.breakdown
        vectors = None
        if include_vectors:
            vectors = [{
                "k": rec.k,
                "x": [float(v) for v in rec.x],
                "g": [float(v) for v in rec.g],
                "d": [float(v) for v in rec.d] if rec.d is not None else None,
            } for rec in trace.records]
        verification = report_to_dict(report) if report is not None else None
        return cls(metadata=metadata, iterations=iterations, final=final,
                   vectors=vectors, verification=verification)

    def to_json(self) -> str:
        doc = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "metadata": self.metadata,
            "iterations": self.iterations,
            "final": self.final,
        }
        if self.vectors is not None:
            doc["vectors"] = self.vectors
        if self.verification is not None:
            doc["verification"] = self.verification
        return json.dumps(doc, indent=2)

    def to_tabular(self) -> str:
        """CSV: metadata as '#' comments, then one row per iteration."""
        lines = []
        for key in ("problem", "config"):
            lines.append(f"# {key}: {json.dumps(self.metadata.get(key))}")
        if "created" in self.metadata:
            lines.append(f"# created: {self.metadata['created']}")
        lines.append(f"# termination: {self.final['termination_reason']} "
                     f"after {self.final['iterations']} iterations")
        lines.append("k,alpha,beta,grad_norm,objective")
        for row in self.iterations:
            beta_txt = "" if row["beta"] is None else _FMT % row["beta"]
            lines.append(",".join([
                str(row["k"]),
                _FMT % row["alpha"],
                beta_txt,
                _FMT % row["grad_norm"],
                _FMT % row["objective"],
            ]))
        return "\n".join(lines) + "\n"


def _package_version() -> str:
    from . import __version__
    return __version__


def write_trace(doc: TraceDocument, target, *, fmt: str = "structured") -> None:
    """Serialize a trace document (``structured`` JSON or ``tabular`` CSV)."""
    if fmt not in ("structured", "tabular"):
        raise ValueError(f"unknown trace format {fmt!r}")
    payload = doc.to_json() + "\n" if fmt == "structured" else doc.to_tabular()
    with _open_text(target, "w") as stream:
        stream.write(payload)


def read_trace(source) -> TraceDocument:
    """Parse a structured trace document written by :func:`write_trace`."""
    with _open_text(source, "r") as stream:
        doc = json.load(stream)
    if doc.get("format") != TRACE_FORMAT:
        raise CgKitError(
            f"not a {TRACE_FORMAT} document (format={doc.get('format')!r})")
    return TraceDocument(metadata=doc["metadata"], iterations=doc["iterations"],
                         final=doc["final"], vectors=doc.get("vectors"),
                         verification=doc.get("verification"))


def report_to_dict(report: VerificationReport, *,
                   include_residuals: bool = False) -> dict[str, Any]:
    """JSON-ready form of a verification report.

    Each check is written as its summary (verdict, worst residual and where
    it occurred, instance and failure counts); ``include_residuals=True``
    adds every evaluated instance.
    """
    checks = []
    for c in report.checks:
        entry: dict[str, Any] = {
            "check": c.check,
            "tolerance": c.tolerance,
            "worst": c.worst,
            "passed": c.passed,
            "residual_count": c.count,
            "failures": c.failures,
            "worst_at": list(c.worst_at),
        }
        if c.note:
            entry["note"] = c.note
        if include_residuals:
            entry["residuals"] = [{
                "identity": r.identity,
                "indices": list(r.indices),
                "raw": r.raw,
                "normalized": r.normalized,
                "passed": r.passed,
            } for r in c.residuals]
        checks.append(entry)
    return {
        "passed": report.passed,
        "tolerance_relaxed": report.tolerance_relaxed,
        "condition_estimate": report.condition_estimate,
        "notes": list(report.notes),
        "checks": checks,
    }


def report_from_dict(data: dict[str, Any]) -> VerificationReport:
    """Inverse of :func:`report_to_dict`.

    The instance arrays of each check are filled when the document lists
    its residuals and left empty otherwise.
    """
    checks = []
    for entry in data["checks"]:
        instances: dict[str, Any] = {}
        items = entry.get("residuals")
        if items:
            names = tuple(r["identity"] for r in items)
            instances = {
                "raw": np.array([r["raw"] for r in items], dtype=np.float64),
                "normalized": np.array([r["normalized"] for r in items],
                                       dtype=np.float64),
                "indices": np.array([r["indices"] for r in items],
                                    dtype=np.intp).reshape(len(items), -1),
                "passes": np.array([r["passed"] for r in items], dtype=bool),
                "identities": names if set(names) - {entry["check"]} else (),
            }
        checks.append(CheckResult(check=entry["check"], tolerance=entry["tolerance"],
                                  worst=entry["worst"], passed=entry["passed"],
                                  count=entry["residual_count"],
                                  failures=entry["failures"],
                                  worst_at=tuple(entry["worst_at"]),
                                  note=entry.get("note", ""), **instances))
    return VerificationReport(
        checks=tuple(checks), passed=data["passed"],
        tolerance_relaxed=data.get("tolerance_relaxed", False),
        condition_estimate=data.get("condition_estimate"),
        notes=tuple(data.get("notes", ())))
