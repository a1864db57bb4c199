"""Vector/matrix primitives: SPD storage, validation, and test-matrix generation.

``MatrixSPD`` is a symmetric matrix container (dense row-major or CSR with
both triangles stored).  Symmetry is enforced at construction; positive
definiteness is certified separately by :func:`spd_validate`, so the type
can hold a symmetric candidate that validation then rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sparse
from scipy.linalg import cho_factor, cho_solve

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
    "SpdValidation",
    "dot",
    "matvec",
    "spd_validate",
    "generate_spd",
    "solve_direct",
    "as_vector",
    "DENSIFY_CAP",
]

# Largest order that is densified or eigensolved: spd_validate factors CSR
# storage by dense Cholesky up to this order and probes it with random
# vectors beyond, and the exact condition estimate needs a dense eigensolve.
# Dense storage is Cholesky-factored at any order, by spd_validate and by the
# direct-solve oracle; the oracle factors CSR storage sparsely.
DENSIFY_CAP = 2000

SYMMETRY_RTOL = 1e-12


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
    of ``1e-12 * max|A|`` and then symmetrized).  CSR storage keeps both
    triangles in one SciPy ``csr_array``, whose compiled kernel computes
    every sparse product; dense products go to BLAS.  Instances are
    immutable: backing arrays are marked read-only.
    """

    __slots__ = ("n", "storage", "_dense", "_csr")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use MatrixSPD.from_dense or MatrixSPD.from_csr")

    @classmethod
    def _new(cls) -> "MatrixSPD":
        return object.__new__(cls)

    @classmethod
    def from_dense(cls, array) -> "MatrixSPD":
        a = np.array(array, dtype=np.float64, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise DimensionError("matrix order must be at least 1")
        if not np.all(np.isfinite(a)):
            raise CgKitError("matrix contains non-finite entries")
        _check_symmetry_dense(a)
        a = (a + a.T) / 2.0
        a.setflags(write=False)
        m = cls._new()
        m.n = a.shape[0]
        m.storage = "dense"
        m._dense = a
        m._csr = None
        return m

    @classmethod
    def from_csr(cls, indptr, indices, data, n: int) -> "MatrixSPD":
        if n < 1:
            raise DimensionError("matrix order must be at least 1")
        data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(data)):
            raise CgKitError("matrix contains non-finite entries")
        try:
            m = _sparse.csr_array((data, indices, indptr), shape=(n, n))
        except (ValueError, IndexError) as err:
            raise DimensionError(f"invalid CSR structure: {err}") from err
        m.sum_duplicates()
        m.sort_indices()
        peak = np.abs(m.data).max() if m.nnz else 0.0
        asym = np.abs(m - m.T).max() if m.nnz else 0.0
        if asym > SYMMETRY_RTOL * peak:
            raise SymmetryError(
                f"matrix is not symmetric: max |A_ij - A_ji| = {asym:.3e} "
                f"exceeds {SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * peak:.3e}")
        m = (m + m.T) / 2.0
        m.sort_indices()
        for arr in (m.indptr, m.indices, m.data):
            arr.setflags(write=False)
        out = cls._new()
        out.n = n
        out.storage = "csr"
        out._dense = None
        out._csr = m
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        if self.storage == "dense":
            return int(np.count_nonzero(self._dense))
        return int(self._csr.nnz)

    @property
    def is_dense(self) -> bool:
        return self.storage == "dense"

    @property
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.storage != "csr":
            raise CgKitError("matrix is not stored in CSR form")
        return self._csr.indptr, self._csr.indices, self._csr.data

    def to_dense(self) -> np.ndarray:
        """Densified copy (read-only for dense storage, fresh for CSR)."""
        if self.storage == "dense":
            return self._dense
        return self._csr.toarray()

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size != self.n:
            raise DimensionError(
                f"operand has shape {x.shape}, expected ({self.n},)")
        if self.storage == "dense":
            return self._dense @ x
        return self._csr @ x

    def matmat(self, block) -> np.ndarray:
        """Product ``A X`` for an (n, m) block: BLAS for dense storage, SciPy's
        CSR kernel for sparse storage."""
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.n:
            raise DimensionError(
                f"operand has shape {block.shape}, expected ({self.n}, m)")
        if self.storage == "dense":
            return self._dense @ block
        return self._csr @ block

    def frobenius_norm(self) -> float:
        if self.storage == "dense":
            return float(np.linalg.norm(self._dense))
        return float(np.linalg.norm(self._csr.data))

    def __repr__(self) -> str:
        return f"MatrixSPD(n={self.n}, storage={self.storage!r}, nnz={self.nnz})"


def _check_symmetry_dense(a: np.ndarray) -> None:
    peak = np.abs(a).max() if a.size else 0.0
    asym = np.abs(a - a.T).max()
    if asym > SYMMETRY_RTOL * peak:
        raise SymmetryError(
            f"matrix is not symmetric: max |A_ij - A_ji| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * peak:.3e}")


def dot(u, v) -> float:
    """Inner product with 64-bit accumulation.

    Raises :class:`DimensionError` when lengths differ.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise DimensionError("dot expects 1-D operands")
    if u.size != v.size:
        raise DimensionError(f"length mismatch: {u.size} vs {v.size}")
    return float(np.dot(u, v))


def matvec(a: MatrixSPD, x) -> np.ndarray:
    """Product ``A x``: BLAS for dense storage, SciPy's CSR kernel for sparse."""
    return a.matvec(x)


@dataclass(frozen=True)
class SpdValidation:
    """Outcome of a successful positive-definiteness check.

    ``method`` is ``"cholesky"`` for the factorization certificate or
    ``"randomized"`` for the probe-vector fallback; ``probable`` is True
    only for the latter, which certifies definiteness with high probability
    rather than exactly.
    """

    method: str
    probable: bool
    order: int


def spd_validate(a, *, densify_cap: int = DENSIFY_CAP, probes: int = 20,
                 seed: int = 0) -> SpdValidation:
    """Certify that ``a`` is symmetric positive definite.

    Dense storage (and CSR up to ``densify_cap``) is checked by Cholesky
    factorization: success means every pivot is strictly positive.  Larger
    CSR matrices are probed with ``max(probes, 20)`` seeded random vectors
    ``v``, requiring ``v.T @ A @ v > 0`` for each; that result is reported
    as probable rather than certain.

    Raises ``SymmetryError`` for asymmetric input and
    ``NotPositiveDefiniteError`` when the check fails.
    """
    m = a if isinstance(a, MatrixSPD) else MatrixSPD.from_dense(a)

    if m.storage == "dense" or m.n <= densify_cap:
        dense = m.to_dense()
        try:
            np.linalg.cholesky(dense)
        except np.linalg.LinAlgError as err:
            raise NotPositiveDefiniteError(
                f"Cholesky factorization failed: {err}") from err
        return SpdValidation(method="cholesky", probable=False, order=m.n)

    k = max(probes, 20)
    rng = np.random.default_rng(seed)
    for i in range(k):
        v = rng.standard_normal(m.n)
        q = dot(v, m.matvec(v))
        if q <= 0.0:
            raise NotPositiveDefiniteError(
                f"randomized probe {i} produced v.T A v = {q:.3e} <= 0")
    return SpdValidation(method="randomized", probable=True, order=m.n)


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
        if self.distribution == "clustered" and self.clusters < 1:
            raise ProblemSpecError("clusters must be at least 1")

    def materialize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Concrete sorted eigenvalue array of length ``n``."""
        if n < 1:
            raise ProblemSpecError("n must be at least 1")
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
        if n >= 2:
            lams[0], lams[-1] = lo, hi
        else:
            lams[0] = lo
        return lams


def generate_spd(n: int, spec: SpectrumSpec, seed: int) -> MatrixSPD:
    """Dense SPD matrix with the spectrum of ``spec``, deterministic in ``seed``.

    The eigenbasis is the Q factor of a seeded Gaussian matrix; a second QR
    pass tightens orthogonality to ~1e-14 so the requested spectrum is
    planted faithfully (trace and extreme Rayleigh quotients match the
    eigenvalue list to rounding).
    """
    if n < 1:
        raise ProblemSpecError("n must be at least 1")
    rng = np.random.default_rng(seed)
    lams = spec.materialize(n, rng)
    q = _random_orthogonal(n, rng)
    a = (q * lams) @ q.T
    return MatrixSPD.from_dense(a)


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * _nonzero_sign(np.diag(r))
    q2, r2 = np.linalg.qr(q)  # re-orthogonalization pass
    return q2 * _nonzero_sign(np.diag(r2))


def _nonzero_sign(d: np.ndarray) -> np.ndarray:
    return np.where(d >= 0.0, 1.0, -1.0)


def solve_direct(a, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by a direct factorization.

    This is the oracle route, independent of the iterative solver.  CSR
    storage is factored by SciPy's sparse LU (SuperLU) at any order, without
    densifying; a singular matrix raises :class:`NotPositiveDefiniteError`.
    Dense storage is factored by Cholesky at any order, whose failure on a
    non-positive pivot raises the same error.
    """
    if isinstance(a, MatrixSPD):
        if a.storage == "csr":
            return _solve_sparse(a, as_vector(rhs, a.n, name="right-hand side"))
        dense = a.to_dense()
    else:
        dense = np.asarray(a, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {dense.shape}")
    rhs = as_vector(rhs, dense.shape[0], name="right-hand side")
    try:
        factor = cho_factor(dense)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed: {err}") from err
    return cho_solve(factor, rhs)


def _solve_sparse(a: MatrixSPD, rhs: np.ndarray) -> np.ndarray:
    from scipy.sparse.linalg import splu  # costly import, needed only here

    try:
        lu = splu(a._csr.tocsc())
    except RuntimeError as err:  # SuperLU reports an exactly singular factor
        raise NotPositiveDefiniteError(
            f"sparse LU factorization failed: {err}") from err
    return lu.solve(rhs)
