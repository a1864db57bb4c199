"""Vector/matrix primitives: SPD storage, validation, and test-matrix generation.

``MatrixSPD`` is a symmetric matrix container (dense row-major or CSR with
both triangles stored).  Symmetry is enforced at construction; positive
definiteness is certified separately by :func:`spd_validate`, so the type
can hold a symmetric candidate that validation then rejects.  The direct-solve
oracle shares its Cholesky routine, which factors CSR storage as a band after
reverse Cuthill-McKee (RCM) ordering (George & Liu, 1981), unless the
matrix's own order already has the narrowest possible band; a problem's
certificate and its minimizer come from one factor.

SciPy is imported only by the CSR paths that need it (the sparse container,
the banded factor and its solve, and the RCM ordering): dense storage is
built, certified and solved with NumPy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CgKitError,
    DimensionError,
    NotPositiveDefiniteError,
    ProblemSpecError,
    SymmetryError,
)

__all__ = [
    "MatrixSPD",
    "SpectrumSpec",
    "dot",
    "matvec",
    "spd_validate",
    "generate_spd",
    "solve_direct",
    "as_vector",
    "DENSIFY_CAP",
]

# Largest order whose exact condition ``verify.estimate_condition`` computes,
# by a dense eigensolve; the verifier does not call it, and nothing else is
# capped by order.
DENSIFY_CAP = 2000

# Rows per diagonal block of the dense triangular solves in _substitute.
SOLVE_BLOCK = 64

# Most float64 entries (1 GiB) in the band of a CSR matrix's Cholesky factor.
# Its size (bandwidth + 1) * n is known before allocation; a larger one is refused.
BAND_BUDGET = 2**27

SYMMETRY_RTOL = 1e-12


def _check_count(value, name: str) -> int:
    """``value`` as a Python int, which a document can serialize; anything
    but an integer (Python or NumPy, not a bool) of at least 1 is refused
    with :class:`ProblemSpecError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ProblemSpecError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def _check_nonnegative(value, name: str) -> None:
    """Refuse a negative or NaN ``value`` (None passes) with
    :class:`ProblemSpecError`."""
    if value is not None and not value >= 0.0:
        raise ProblemSpecError(f"{name} must be nonnegative, got {value!r}")


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and convert ``x`` to a 1-D float64 array with finite entries."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionError(f"{name} has length {v.size}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise CgKitError(f"{name} contains non-finite entries")
    return v


class MatrixSPD:
    """Symmetric matrix in dense or CSR storage.

    Construct via :meth:`from_dense` or :meth:`from_csr`.  Stored entries
    satisfy exact symmetry (inputs are checked against a relative tolerance
    of ``1e-12 * max|A|`` and then symmetrized).  The one operand ``_a`` is
    a read-only C-ordered ndarray for dense storage, whose products go to
    BLAS, or a SciPy ``csr_array`` holding both triangles, whose compiled
    kernel computes every sparse product.  Instances are immutable.
    """

    __slots__ = ("n", "storage", "_a")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use MatrixSPD.from_dense or MatrixSPD.from_csr")

    @classmethod
    def _new(cls, storage: str, a) -> "MatrixSPD":
        m = object.__new__(cls)
        m.n, m.storage, m._a = a.shape[0], storage, a
        return m

    @classmethod
    def from_dense(cls, array) -> "MatrixSPD":
        a = np.array(array, dtype=np.float64, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise DimensionError("matrix order must be at least 1")
        if not np.all(np.isfinite(a)):
            raise CgKitError("matrix contains non-finite entries")
        _check_symmetry(np.abs(a - a.T).max(), np.abs(a).max())
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        return cls._new("dense", a)

    @classmethod
    def from_csr(cls, indptr, indices, data, n: int) -> "MatrixSPD":
        """Order-``n`` matrix from CSR arrays (duplicates summed, indices
        sorted), stored in fresh arrays.  Input equal to its transpose bit
        for bit only loses its explicit zeros; other input must pass the
        symmetry tolerance and is then replaced by ``(A + A.T) / 2``.
        Either way entries (i, j) and (j, i) are stored with the same bits,
        which the band scatter of :func:`_lower_band` relies on."""
        if n < 1:
            raise DimensionError("matrix order must be at least 1")
        data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(data)):
            raise CgKitError("matrix contains non-finite entries")
        from scipy.sparse import csr_array

        try:  # a copy: canonicalizing sorts in place, and the result is frozen
            m = csr_array((data, indices, indptr), shape=(n, n), copy=True)
            m.check_format(full_check=True)  # the constructor's check skips index bounds
        except (ValueError, IndexError) as err:
            raise DimensionError(f"invalid CSR structure: {err}") from err
        m.sum_duplicates()
        m.sort_indices()
        t = m.T.tocsr()
        if all(np.array_equal(u, v) for u, v in ((m.indptr, t.indptr),
                                                 (m.indices, t.indices), (m.data, t.data))):
            if not m.data.all():  # zeros are all that (m + m.T) / 2 changes here
                m.eliminate_zeros()
        else:
            _check_symmetry(np.abs(m - t).max(), np.abs(m.data).max())
            m = (m + t) / 2.0
            m.sort_indices()
        for arr in (m.indptr, m.indices, m.data):
            arr.setflags(write=False)
        return cls._new("csr", m)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        if self.is_dense:
            return int(np.count_nonzero(self._a))
        return int(self._a.nnz)

    @property
    def is_dense(self) -> bool:
        return self.storage == "dense"

    @property
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.is_dense:
            raise CgKitError("matrix is not stored in CSR form")
        return self._a.indptr, self._a.indices, self._a.data

    def to_dense(self) -> np.ndarray:
        """Densified copy (read-only for dense storage, fresh for CSR)."""
        return self._a if self.is_dense else self._a.toarray()

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size != self.n:
            raise DimensionError(
                f"operand has shape {x.shape}, expected ({self.n},)")
        return self._a @ x

    def matmat(self, block) -> np.ndarray:
        """Product ``A X`` for an (n, m) block: BLAS for dense storage, SciPy's
        CSR kernel for sparse storage."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.n:
            raise DimensionError(
                f"operand has shape {block.shape}, expected ({self.n}, m)")
        return self._a @ block

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self._a if self.is_dense else self._a.data))

    def __repr__(self) -> str:
        return f"MatrixSPD(n={self.n}, storage={self.storage!r}, nnz={self.nnz})"


def _check_symmetry(asym: float, peak: float) -> None:
    """Refuse a matrix whose largest ``|A_ij - A_ji|`` exceeds
    ``SYMMETRY_RTOL`` times its largest entry magnitude ``peak``."""
    if asym > SYMMETRY_RTOL * peak:
        raise SymmetryError(
            f"matrix is not symmetric: max |A_ij - A_ji| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * peak:.3e}")


def _matrix(a) -> MatrixSPD:
    """The one conversion of a matrix operand: ``a`` itself, or a raw array
    validated by :meth:`MatrixSPD.from_dense`."""
    return a if isinstance(a, MatrixSPD) else MatrixSPD.from_dense(a)


def _operands(what: str, *vectors) -> list[np.ndarray]:
    """The one check of vector operands: float64 arrays of ``vectors``,
    refused with :class:`DimensionError` unless they are 1-D and of one
    length."""
    arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise DimensionError(f"{what} operands must be 1-D and share one length")
    return arrays


def dot(u, v) -> float:
    """Inner product with 64-bit accumulation.

    Raises :class:`DimensionError` unless both operands are 1-D and of one
    length.
    """
    return float(np.dot(*_operands("dot", u, v)))


def matvec(a: MatrixSPD, x) -> np.ndarray:
    """Product ``A x``: BLAS for dense storage, SciPy's CSR kernel for sparse."""
    return a.matvec(x)


def spd_validate(a) -> None:
    """Certify that ``a`` is symmetric positive definite by a Cholesky
    factorization whose every pivot clears the relative test of
    ``_cholesky``, or raise: ``SymmetryError`` for asymmetric input,
    ``NotPositiveDefiniteError`` when the factorization fails or a pivot is
    too small, and ``CgKitError`` when the band of a CSR matrix would exceed
    ``BAND_BUDGET``.  The certificate is the absence of an error; the
    factor is dropped."""
    _cholesky(_matrix(a))


def _cholesky(m: MatrixSPD) -> tuple[np.ndarray, np.ndarray | None]:
    """Lower Cholesky factor of ``m`` and the order ``perm`` it factors in:
    NumPy's full factor for dense storage (``perm`` None); for CSR storage,
    after an O(nnz) check of the diagonal, LAPACK's banded factor of ``m``
    in RCM ordering (row i is row ``perm[i]`` of ``m``), unless the
    matrix's own order already has the narrowest possible band (``perm``
    None; see :func:`_lower_band`).

    A pivot ``L_ii**2`` at most ``k * eps * a_ii`` is refused as singular
    to working precision, with ``k`` the number of terms in its sum: the
    order for dense storage, the band width for CSR (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10)."""
    if m.is_dense:
        try:
            factor = np.linalg.cholesky(m._a)
        except np.linalg.LinAlgError as err:
            raise NotPositiveDefiniteError(
                f"Cholesky factorization failed: {err}") from err
        _check_pivots(np.diagonal(factor), np.diagonal(m._a), m.n, None)
        return factor, None

    from scipy.linalg import cholesky_banded

    diag = m._a.diagonal()
    if not np.all(diag > 0.0):
        i = int(np.argmin(diag > 0.0))
        raise NotPositiveDefiniteError(f"diagonal entry {i} is {diag[i]:.3e} <= 0")
    band, perm = _lower_band(m._a)
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(
            f"banded Cholesky factorization failed: {err}") from err
    _check_pivots(factor[0], diag if perm is None else diag[perm], factor.shape[0], perm)
    return factor, perm


def _lower_band(a) -> tuple[np.ndarray, np.ndarray | None]:
    """LAPACK's lower band of the CSR matrix ``a``, a Fortran-ordered
    ``(width, n)`` array, and the order ``perm`` it is built in: RCM
    ordering, unless the matrix's own order already has the narrowest
    possible band, when ``perm`` is None and SciPy's graph module is not
    imported.

    Row i stores Delta = max(diff(indptr)) - 1 entries off the diagonal at
    most, with equality somewhere (``_cholesky`` has refused a missing
    diagonal), and any order puts them within w of i on both sides, so
    Delta <= 2w.  A half-band w0 = ceil(Delta / 2) in the own order is thus
    the narrowest, and the ordering is skipped.

    Entry (i, j) goes to (r, c) = (inv[i], inv[j]) (the identity in the own
    order), and the lower band keeps (r, c) at [r - c, c] for r >= c, so
    flat index |r - c| + min(r, c) * width of the band in Fortran order.
    An entry above the diagonal lands on its mirror's slot, which needs no
    mask: ``MatrixSPD.from_csr`` stores exactly symmetric entries, bit for
    bit, so (i, j) and (j, i) write one value.  A band above
    ``BAND_BUDGET`` entries is refused before allocation; below it every
    flat index is under 2**27, so int32 arithmetic cannot overflow."""
    n = a.shape[0]
    counts = np.diff(a.indptr)
    cols = a.indices
    rows = np.repeat(np.arange(n, dtype=cols.dtype), counts)
    flat = rows - cols
    np.abs(flat, out=flat)
    width = int(flat.max()) + 1
    perm = None
    if 2 * (width - 1) > int(counts.max()):  # w0 > ceil(Delta / 2)
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        perm = reverse_cuthill_mckee(a, symmetric_mode=True)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n, dtype=perm.dtype)
        cols = inv[a.indices]
        rows = np.repeat(inv, counts)
        flat = rows - cols
        np.abs(flat, out=flat)
        width = int(flat.max()) + 1
    if width * n > BAND_BUDGET:
        order = "in its own order" if perm is None else "after RCM ordering"
        raise CgKitError(f"banded Cholesky needs {width} x {n} entries {order} "
                         f"({width * n / 2**27:.1f} GiB), above the 1 GiB budget")
    np.minimum(rows, cols, out=rows)
    rows *= width
    flat += rows
    band = np.zeros((width, n), order="F")  # LAPACK's layout: no copy
    band.ravel(order="F")[flat] = a.data
    return band, perm


def _check_pivots(root: np.ndarray, diag: np.ndarray, terms: int,
                  perm: np.ndarray | None) -> None:
    """Refuse the first pivot ``root[i]**2 <= terms * eps * diag[i]``,
    named by its row of the unpermuted matrix."""
    bound = terms * np.finfo(np.float64).eps * diag
    small = root * root <= bound
    if small.any():
        i = int(np.argmax(small))
        row = i if perm is None else int(perm[i])
        raise NotPositiveDefiniteError(
            f"Cholesky pivot of row {row} is {root[i] ** 2:.3e}, not above "
            f"{terms} * eps * A[{row}, {row}] = {bound[i]:.3e}: "
            f"singular to working precision")


def _substitute(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of ``L Lᵀ x = rhs`` for a dense lower factor ``L``, by
    blocked forward and back substitution: each ``SOLVE_BLOCK``-row
    diagonal block is solved by ``np.linalg.solve`` after one
    matrix-vector product with the rows or columns already solved, so the
    work beyond the factor is O(n²) flops, plus O(n * SOLVE_BLOCK²) in the
    blocks, and no O(n³) solve with the whole matrix."""
    n = factor.shape[0]
    starts = range(0, n, SOLVE_BLOCK)
    y = np.empty(n)
    for i in starts:
        j = min(i + SOLVE_BLOCK, n)
        y[i:j] = np.linalg.solve(factor[i:j, i:j], rhs[i:j] - factor[i:j, :i] @ y[:i])
    x = np.empty(n)
    for i in reversed(starts):
        j = min(i + SOLVE_BLOCK, n)
        x[i:j] = np.linalg.solve(factor[i:j, i:j].T, y[i:j] - x[j:] @ factor[j:, i:j])
    return x


def _certified_solve(m: MatrixSPD, rhs: np.ndarray) -> np.ndarray:
    """The solution of ``m x = rhs`` from the ``_cholesky`` factor that
    certifies ``m`` as :func:`spd_validate` does (with its errors), which
    is then dropped.  A dense factor is solved by NumPy's blocked
    substitution (:func:`_substitute`), with no SciPy import.  A banded
    factor is solved by SciPy's ``cho_solve_banded`` in its order: RCM
    ordering, undone by two gathers, unless the matrix's own order already
    has the narrowest possible band, which needs none."""
    factor, perm = _cholesky(m)
    if m.is_dense:
        return _substitute(factor, rhs)
    from scipy.linalg import cho_solve_banded

    if perm is None:
        return cho_solve_banded((factor, True), rhs, check_finite=False)
    x = np.empty_like(rhs)
    x[perm] = cho_solve_banded((factor, True), rhs[perm], check_finite=False)
    return x


@dataclass(frozen=True)
class SpectrumSpec:
    """Requested eigenvalue layout for generated SPD matrices.

    Either ``eigenvalues`` lists all values explicitly, or a positive range
    ``(lam_min, lam_max)`` is filled according to ``distribution``:

    * ``"loguniform"`` - independent draws, uniform in log space;
    * ``"linear"`` - equispaced values;
    * ``"clustered"`` - ``clusters`` geometric centers with +-1e-4
      relative jitter.

    For ranged specs with n >= 2, the extreme eigenvalues are pinned to
    ``lam_min`` and ``lam_max`` exactly, so the condition number of the
    generated matrix equals ``lam_max / lam_min``.
    """

    eigenvalues: tuple[float, ...] | None = None
    lam_min: float | None = None
    lam_max: float | None = None
    distribution: str = "loguniform"
    clusters: int = 2

    _DISTRIBUTIONS = ("loguniform", "linear", "clustered")
    _CLUSTER_JITTER = 1e-4

    def __post_init__(self):
        if self.eigenvalues is not None:
            if self.lam_min is not None or self.lam_max is not None:
                raise ProblemSpecError(
                    "give either explicit eigenvalues or a range, not both")
            vals = tuple(float(v) for v in self.eigenvalues)
            if not vals:
                raise ProblemSpecError("eigenvalue list is empty")
            if any(not np.isfinite(v) or v <= 0.0 for v in vals):
                raise ProblemSpecError("eigenvalues must be finite and strictly positive")
            object.__setattr__(self, "eigenvalues", vals)
            return
        if self.lam_min is None or self.lam_max is None:
            raise ProblemSpecError(
                "either explicit eigenvalues or (lam_min, lam_max) is required")
        if not (np.isfinite(self.lam_min) and np.isfinite(self.lam_max)):
            raise ProblemSpecError("eigenvalue bounds must be finite")
        if self.lam_min <= 0.0:
            raise ProblemSpecError("lam_min must be strictly positive")
        if self.lam_min > self.lam_max:
            raise ProblemSpecError("lam_min must not exceed lam_max")
        if self.distribution not in self._DISTRIBUTIONS:
            raise ProblemSpecError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {self._DISTRIBUTIONS}")
        if self.distribution == "clustered":
            object.__setattr__(self, "clusters", _check_count(self.clusters, "clusters"))

    def materialize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Concrete sorted eigenvalue array of length ``n``."""
        _check_count(n, "n")
        if self.eigenvalues is not None:
            if len(self.eigenvalues) != n:
                raise ProblemSpecError(
                    f"spec lists {len(self.eigenvalues)} eigenvalues, problem needs {n}")
            return np.sort(np.asarray(self.eigenvalues, dtype=np.float64))
        lo, hi = float(self.lam_min), float(self.lam_max)
        if self.distribution == "loguniform":
            lams = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
        elif self.distribution == "linear":
            lams = np.linspace(lo, hi, n)
        else:
            centers = np.geomspace(lo, hi, self.clusters)
            lams = centers[np.arange(n) % self.clusters]
            lams = lams * (1.0 + self._CLUSTER_JITTER * rng.uniform(-1.0, 1.0, n))
            lams = np.clip(lams, lo, hi)
        lams = np.sort(lams)
        lams[-1], lams[0] = hi, lo  # in this order, so that n = 1 gives lo
        return lams


def generate_spd(n: int, spec: SpectrumSpec, seed: int) -> MatrixSPD:
    """Dense SPD matrix with the spectrum of ``spec``, deterministic in ``seed``.

    The eigenbasis is the Q factor of one Householder QR of a seeded
    Gaussian matrix.  Signing Q's columns by R's diagonal would make it
    Haar-distributed (Mezzadri, Notices AMS 2007), but a column's sign
    cancels in each term of ``(q * lams) @ q.T``, so A is, bit for bit, the
    matrix that the Haar Q gives, and has its law.  Q is orthogonal to
    working precision (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 19.3), so each eigenvalue is planted within a small
    multiple of eps * lam_max.
    """
    _check_count(n, "n")
    _check_nonnegative(seed, "seed")  # NumPy's generators take no other seed
    rng = np.random.default_rng(seed)
    lams = spec.materialize(n, rng)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]  # R is freed at once
    return MatrixSPD.from_dense((q * lams) @ q.T)


def solve_direct(a, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by a direct factorization.

    This is the oracle route, independent of the iterative solver, for any
    right-hand side.  It factors ``A`` with the Cholesky routine of
    :func:`spd_validate`, at any order and with the same errors, and solves
    with the factor by the same helper that gives a
    :class:`~cgkit.cg.QuadraticProblem` its minimizer, so
    ``solve_direct(p.A, -p.b)`` equals ``p.direct_solution()`` bit for bit.
    """
    m = _matrix(a)
    return _certified_solve(m, as_vector(rhs, m.n, name="right-hand side"))
