"""Post-hoc numerical certification of conjugate-gradient identities.

Every check consumes a recorded :class:`~cgkit.cg.IterationTrace` and
reports *normalized* residuals: each raw identity violation is divided by
the natural scale of its participants (Euclidean or A-norm products), so a
single tolerance is meaningful across problems.

The identities certified here hold exactly in exact arithmetic for every
iterate that is not yet the minimizer.  Checks therefore run over the
recorded pre-termination iterations only; the final below-tolerance
gradient sits at the numerical minimizer, where the identities'
hypothesis fails and its direction is rounding noise.  Finite precision
degrades the far-pair identities as a run approaches full Krylov depth
(iterations close to the dimension); the default tolerance of 1e-8 is an
engineering choice for well-conditioned problems and is relaxed - and
flagged as relaxed - above condition 1e4, where the checks measure the
degradation rather than certify exactness.

The condition that decides this comes from the run itself.  With the
gradients normalized, their A-products form the CG-Lanczos tridiagonal
T_K, whose entries are the recorded stepsizes and couplings (diagonal
1/alpha_k + beta_k/alpha_{k-1}, off-diagonal sqrt(beta_k)/alpha_{k-1}).
Its extreme eigenvalues, the Ritz values, lie inside A's spectrum, so
their ratio is a lower bound on A's condition in exact arithmetic.  It is
the schedule's only condition, at every order, and every report quotes
it: the verifier never densifies A or solves its eigenproblem.

The checks are linear algebra on the recorded vectors stacked as rows of
(K, n) arrays G, D and AD, which the trace hands out as columns: AD as
recorded, G and D replayed bit for bit by the solver's own updates from
g_0, AD and the recorded stepsizes and couplings (the iterates are needed
only in explicit gradient mode, at one matvec per step).  Each pairwise
family is one K x K Gram product (D ADᵀ, G Dᵀ, G Gᵀ and G (AG)ᵀ, with AG
one block product by A), and the per-iteration families are row-wise dot
products.  The row products that scale them all, g_k.g_k, g_k.d_k and
d_k.A d_k, are formed once per report and shared by every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cg import (
    BetaRule,
    IterationTrace,
    QuadraticProblem,
    TerminationReason,
    _vanishes,
    beta,
    stepsize_exact,
    stepsize_orthogonal,
)
from .errors import BreakdownError, IncompleteTraceError
from .linalg import DENSIFY_CAP, MatrixSPD, _check_nonnegative, _matrix

__all__ = [
    "IdentityResidual",
    "CheckResult",
    "VerificationReport",
    "check_classical_identities",
    "check_gradient_conjugacy",
    "check_stepsize_equivalence",
    "check_finite_termination",
    "check_beta_agreement",
    "run_all_checks",
    "estimate_condition",
    "DEFAULT_CHECK_TOLERANCE",
    "RELAXED_CHECK_TOLERANCE",
    "CONDITION_RELAX_THRESHOLD",
]

DEFAULT_CHECK_TOLERANCE = 1e-8
RELAXED_CHECK_TOLERANCE = 1e-5
CONDITION_RELAX_THRESHOLD = 1e4
STEPSIZE_TOLERANCE = 1e-12
SOLUTION_TOLERANCE = 1e-10

_FLOOR = np.finfo(np.float64).tiny

# Largest T_K whose Ritz extremes come from NumPy's dense eigensolve; longer
# runs take SciPy's two selected eigenvalues of the tridiagonal.  With SciPy
# loaded (2 vCPU, NumPy 2.4.6, SciPy 1.17.1; medians of 200 calls) the dense
# route took 36 / 160 / 687 us at K = 32 / 64 / 128 and the selected one
# 63 / 91 / 162 us: up to this bound the dense route costs at most about
# 0.07 ms more, and it imports nothing.  The bound is a cost limit, not a
# value fitted to a workload.
RITZ_DENSE_MAX = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_NO_VALUES = _frozen(np.empty(0))
_NO_INDICES = _frozen(np.empty((0, 0), dtype=np.intp))
_NO_VERDICTS = _frozen(np.empty(0, dtype=bool))


@dataclass(frozen=True)
class IdentityResidual:
    """One evaluated identity instance.

    ``indices`` identifies the participating iteration(s); ``normalized``
    is ``raw`` divided by the check's natural scale and is what ``passed``
    compares against the tolerance.
    """

    identity: str
    indices: tuple[int, ...]
    raw: float
    normalized: float
    passed: bool


@dataclass(frozen=True)
class CheckResult:
    """Verdict and summary of one identity family, with its instances as arrays.

    ``count`` instances were evaluated and ``failures`` of them missed the
    tolerance; ``worst`` is the largest ``|normalized|`` residual and
    ``worst_at`` the iteration indices of that instance (the first one on a
    tie; ``()`` when there are no instances).

    The instance arrays are ``normalized``, ``raw``, ``indices`` (one row of
    iteration indices per instance) and ``passes`` (each instance's
    verdict); ``identities`` names each instance when the family mixes
    identities and is empty when ``check`` names them all.  They take no
    part in equality, so a report read back from a summary-only document
    equals the report it was written from; in such a report they are empty.
    """

    check: str
    tolerance: float
    worst: float
    passed: bool
    count: int = 0
    failures: int = 0
    worst_at: tuple[int, ...] = ()
    note: str = ""
    normalized: np.ndarray = field(default_factory=lambda: _NO_VALUES,
                                   compare=False, repr=False)
    raw: np.ndarray = field(default_factory=lambda: _NO_VALUES,
                            compare=False, repr=False)
    indices: np.ndarray = field(default_factory=lambda: _NO_INDICES,
                                compare=False, repr=False)
    passes: np.ndarray = field(default_factory=lambda: _NO_VERDICTS,
                               compare=False, repr=False)
    identities: tuple[str, ...] = field(default=(), compare=False, repr=False)

    @property
    def residuals(self) -> tuple[IdentityResidual, ...]:
        """Every instance as an :class:`IdentityResidual`, built on demand."""
        names = self.identities or (self.check,) * self.normalized.size
        return tuple(
            IdentityResidual(name, tuple(idx), raw, norm, ok)
            for name, idx, raw, norm, ok in zip(
                names, self.indices.tolist(), self.raw.tolist(),
                self.normalized.tolist(), self.passes.tolist()))


@dataclass(frozen=True)
class VerificationReport:
    """One or more check results with an overall verdict.

    ``tolerance_relaxed`` is True when the tolerance schedule loosened the
    normalized tolerance because of high estimated conditioning; such a
    report documents measured floating-point residuals and does not certify
    the exact-arithmetic identities.  ``condition_estimate`` is the Ritz
    estimate from the recorded steps, a lower bound on A's condition in
    exact arithmetic, and ``inf`` when a recorded step is invalid.
    """

    checks: tuple[CheckResult, ...]
    passed: bool
    tolerance_relaxed: bool = False
    condition_estimate: float | None = None
    notes: tuple[str, ...] = ()

    @property
    def worst_violation(self) -> float:
        return max((c.worst for c in self.checks), default=0.0)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.check == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            line = (f"[{verdict}] {c.check}: worst normalized residual "
                    f"{c.worst:.3e} (tolerance {c.tolerance:.0e}, "
                    f"{c.count} residuals)")
            if c.note:
                line += f" - {c.note}"
            lines.append(line)
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def estimate_condition(a: MatrixSPD | np.ndarray) -> float | None:
    """Spectral condition of ``a`` via a dense eigensolve.

    Returns None for matrices of order above ``DENSIFY_CAP``; ``inf`` when
    the smallest eigenvalue is not positive.  The verifier does not call
    it: its tolerance schedule and reports use the Ritz estimate of the
    recorded steps, which this exact value bounds from above.  A raw
    array ``a`` is validated by :meth:`MatrixSPD.from_dense` first.
    """
    m = _matrix(a)
    if m.n > DENSIFY_CAP:
        return None
    vals = np.linalg.eigvalsh(m.to_dense())
    if vals[0] <= 0.0:
        return math.inf
    return float(vals[-1] / vals[0])


def _lanczos_tridiagonal(alpha: np.ndarray, beta: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the CG-Lanczos tridiagonal T_K.

    ``alpha[k]`` and ``beta[k]`` are the recorded stepsize and coupling of
    iteration k (``beta[0]`` is unused): the diagonal is 1/alpha_k +
    beta_k/alpha_{k-1} and the off-diagonal sqrt(beta_k)/alpha_{k-1}.  An
    entry is not finite where a stepsize is zero or a coupling negative or
    missing (NaN); no floating-point error is raised.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diag = 1.0 / alpha
        diag[1:] += beta[1:] / alpha[:-1]
        off = np.sqrt(beta[1:]) / alpha[:-1]  # NaN for a negative or NaN beta
    return diag, off


def _ritz_extremes(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float] | None:
    """Smallest and largest eigenvalue (Ritz value) of the CG-Lanczos
    tridiagonal T_K of :func:`_lanczos_tridiagonal`.

    Up to ``RITZ_DENSE_MAX`` steps they come from NumPy's dense eigensolve
    of T_K, with no SciPy import; longer runs select the two of them with
    SciPy's ``eigvalsh_tridiagonal``.  The routes agree to rounding, not
    bit for bit.  Returns None when a stepsize is not positive or a
    coupling is negative or missing (NaN): no SPD run records such steps.
    """
    diag, off = _lanczos_tridiagonal(alpha, beta)
    if not (np.all(alpha > 0.0) and np.isfinite(diag).all() and np.isfinite(off).all()):
        return None
    if len(diag) <= RITZ_DENSE_MAX:
        vals = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))  # reads the lower triangle
        return float(vals[0]), float(vals[-1])
    from scipy.linalg import eigvalsh_tridiagonal

    last = len(diag) - 1
    (lo,) = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    (hi,) = eigvalsh_tridiagonal(diag, off, select="i", select_range=(last, last))
    return float(lo), float(hi)


def _tolerance_schedule(s: _Stacked, tolerance: float | None
                        ) -> tuple[float, bool, float | None, tuple[str, ...]]:
    """Resolve (tolerance, relaxed, condition, notes) for identity checks.

    The Ritz estimate of the recorded steps decides and is the condition
    reported.  Since it can only understate A's condition, an estimate
    above the threshold is a sure reason to relax.
    """
    if tolerance is not None:
        return tolerance, False, None, ()
    ritz = _ritz_extremes(s.alpha, s.beta)
    cond = ritz[1] / ritz[0] if ritz is not None and ritz[0] > 0.0 else math.inf
    if cond <= CONDITION_RELAX_THRESHOLD:
        return DEFAULT_CHECK_TOLERANCE, False, cond, ()
    note = (f"normalized tolerance relaxed to {RELAXED_CHECK_TOLERANCE:.0e} "
            f"for estimated condition {cond:.2e}; residuals below are "
            "measured floating-point values, not an exact-arithmetic "
            "certification")
    return RELAXED_CHECK_TOLERANCE, True, cond, (note,)


def _normalized(raw: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return raw / np.maximum(scale, _FLOOR)


def _result(check: str, tolerance: float, raw: np.ndarray, normalized: np.ndarray,
            indices: np.ndarray, *, passes: np.ndarray | None = None,
            note: str = "", identities: tuple[str, ...] = ()) -> CheckResult:
    """Summarize one family's instance arrays into a :class:`CheckResult`.

    ``passes`` defaults to ``|normalized| <= tolerance`` (a NaN fails).
    """
    magnitude = np.abs(normalized)
    if passes is None:
        passes = magnitude <= tolerance
    count = int(normalized.size)
    worst, worst_at = 0.0, ()
    if count:
        at = int(np.argmax(magnitude))  # the first NaN, if there is one
        worst, worst_at = float(magnitude[at]), tuple(indices[at].tolist())
    failures = count - int(np.count_nonzero(passes))
    return CheckResult(check=check, tolerance=tolerance, worst=worst,
                       passed=failures == 0, count=count, failures=failures,
                       worst_at=worst_at, note=note,
                       normalized=_frozen(normalized), raw=_frozen(raw),
                       indices=_frozen(indices), passes=_frozen(passes),
                       identities=identities)


def _report(checks, relaxed: bool = False, cond: float | None = None,
            notes: tuple[str, ...] = ()) -> VerificationReport:
    checks = tuple(checks)
    return VerificationReport(checks=checks, passed=all(c.passed for c in checks),
                              tolerance_relaxed=relaxed, condition_estimate=cond,
                              notes=notes)


class _Stacked(NamedTuple):
    """Record vectors as rows: ``G[k] = g_k``, ``D[k] = d_k``, ``AD[k] = A d_k``;
    the recorded scalars ``alpha[k]`` and ``beta[k]`` (NaN where unrecorded,
    as at k = 0); and the row products ``gg[k] = g_k . g_k``,
    ``gd[k] = g_k . d_k`` and ``dAd[k] = d_k . A d_k``, formed once for
    all families (a row product of a row slice equals that slice of the
    full product, bit for bit)."""

    G: np.ndarray
    D: np.ndarray
    AD: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gg: np.ndarray
    gd: np.ndarray
    dAd: np.ndarray


def _identity_report(trace: IterationTrace, tolerance: float | None, families,
                     what: str, tail: tuple[CheckResult, ...] = ()) -> VerificationReport:
    """The one path of every identity check.

    Refuses a negative or NaN ``tolerance``, then a trace with no recorded
    iteration; stacks the trace's columns and forms their shared row
    products once, resolves the tolerance by ``_tolerance_schedule`` and
    reports ``families(stacked, tol)`` followed by the ``tail`` checks,
    which need no recorded step.  With a ``tail`` an empty trace is not
    refused: the identity checks are skipped with a note and the tail is
    reported alone.
    """
    _check_nonnegative(tolerance, "check tolerance")
    if not trace.records:
        if not tail:
            raise IncompleteTraceError(f"{what} needs at least one recorded iteration")
        return _report(tail, notes=("no iterations recorded; identity checks skipped",))
    G, D, AD, *steps = trace.columns("G", "D", "AD", "alpha", "beta")
    stacked = _Stacked(G, D, AD, *steps, _rowdot(G, G), _rowdot(G, D), _rowdot(D, AD))
    tol, relaxed, cond, notes = _tolerance_schedule(stacked, tolerance)
    return _report((*families(stacked, tol), *tail), relaxed, cond, notes)


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def _classical(s: _Stacked, tol: float) -> tuple[CheckResult, ...]:
    K = len(s.G)
    gnorm = np.sqrt(s.gg)
    dnorm = np.sqrt(_rowdot(s.D, s.D))
    i, j = np.tril_indices(K, -1)
    pairs = np.column_stack((i, j))

    def pairwise(check, gram, scale):
        raw = gram[i, j]
        return _result(check, tol, raw, _normalized(raw, scale), pairs)

    descent = s.gd + s.gg
    with np.errstate(invalid="ignore"):  # d.Ad < 0 (not SPD) gives a NaN residual
        conjugacy_scale = np.sqrt(s.dAd[i] * s.dAd[j])
    return (
        _result("descent", tol, descent, _normalized(descent, s.gg),
                np.arange(K)[:, None]),
        pairwise("direction_conjugacy", s.D @ s.AD.T, conjugacy_scale),
        pairwise("gradient_direction_orthogonality", s.G @ s.D.T, gnorm[i] * dnorm[j]),
        pairwise("gradient_orthogonality", s.G @ s.G.T, gnorm[i] * gnorm[j]),
    )


def _gradient_conjugacy(s: _Stacked, a: MatrixSPD, tol: float) -> tuple[CheckResult, ...]:
    K = len(s.G)
    AG = a.matmat(s.G.T).T
    anorm = np.sqrt(np.maximum(_rowdot(s.G, AG), 0.0))
    GAG = s.G @ AG.T  # GAG[p, i] = g_p . A g_i
    note = "single recorded iteration: no gradient pairs to check" if K == 1 else ""
    k = np.arange(K - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        adjacent = GAG[k + 1, k] + s.gg[1:] / s.alpha[:-1]
    p, q = np.tril_indices(K, -2)
    far = GAG[p, q]
    return (
        _result("gradient_conjugacy_adjacent", tol, adjacent,
                _normalized(adjacent, anorm[k + 1] * anorm[k]),
                np.column_stack((k + 1, k)), note=note),
        _result("gradient_conjugacy_far", tol, far,
                _normalized(far, anorm[p] * anorm[q]),
                np.column_stack((p, q)), note=note),
    )


def _with_breakdowns(check: str, tol: float, raw: np.ndarray, normalized: np.ndarray,
                     broken: np.ndarray, steps: np.ndarray, formulas,
                     note: str = "") -> CheckResult:
    """:func:`_result` of a family with one instance per step ``steps[i]``,
    its ``broken`` instances marked infinite.  At each broken step ``k``,
    each function of ``formulas`` calls the scalar formulas on step k's
    vectors, and the breakdown it raises is noted, worded as the solver
    reports it."""
    raw[broken] = normalized[broken] = math.inf
    notes = [note] if note else []
    for k in steps[broken].tolist():
        for formula in formulas:
            try:
                formula(k)
            except BreakdownError as err:
                notes.append(f"iteration {k}: {err}")
    return _result(check, tol, raw, normalized, steps[:, None], note="; ".join(notes))


def _stepsize_equivalence(s: _Stacked, tol: float) -> tuple[CheckResult, ...]:
    gAd = _rowdot(s.G, s.AD)
    broken = _vanishes(s.dAd, signed=False) | _vanishes(gAd, signed=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_exact = -s.gd / s.dAd
        raw = a_exact - (-s.gg / gAd)
        normalized = _normalized(raw, np.abs(a_exact))
    # one function for both formulas: a step notes its first breakdown only
    formulas = (lambda k: (stepsize_exact(s.G[k], s.D[k], s.AD[k]),
                           stepsize_orthogonal(s.G[k], s.AD[k])),)
    return (_with_breakdowns("stepsize_equivalence", tol, raw, normalized, broken,
                             np.arange(len(s.G)), formulas),)


def _beta_agreement(s: _Stacked, tol: float) -> tuple[CheckResult, ...]:
    K = len(s.G)
    note = "single recorded iteration: no coupling step to compare" if K == 1 else ""
    g, d_prev = s.G[1:], s.D[:-1]
    y = g - s.G[:-1]
    gg, pp = s.gg[1:], s.gg[:-1]
    gy, dy = _rowdot(g, y), _rowdot(d_prev, y)
    broken = _vanishes(pp, signed=False) | _vanishes(dy, signed=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.stack([gg / pp, gy / dy, gy / pp, gg / dy])  # FR, HS, PRP, DY
        peak = np.abs(values).max(axis=0)
        raw = values.max(axis=0) - values.min(axis=0)
        normalized = np.where(peak > 0.0, raw / peak, 0.0)
    formulas = [lambda k, rule=rule: beta(rule, s.G[k], s.G[k - 1], s.D[k - 1])
                for rule in BetaRule]
    return (_with_breakdowns("beta_agreement", tol, raw, normalized, broken,
                             np.arange(1, K), formulas, note),)


def check_classical_identities(trace: IterationTrace, a,
                               *, tolerance: float | None = None) -> VerificationReport:
    """The four classical identity families over all recorded iterations.

    For recorded iterations i > j:

    * descent:                g_i . d_i = -||g_i||^2   (normalized by ||g_i||^2)
    * direction conjugacy:    d_i . A d_j = 0          (by sqrt((d_i.Ad_i)(d_j.Ad_j)))
    * gradient/direction:     g_i . d_j = 0            (by ||g_i|| ||d_j||)
    * gradient orthogonality: g_i . g_j = 0            (by ||g_i|| ||g_j||)

    Uses the ``A d_k`` products of the trace, not ``a``: a dense trace
    stores them, and a CSR trace's replay recomputes them, one sparse
    product per iteration.
    """
    return _identity_report(trace, tolerance, _classical, "classical-identity check")


def check_gradient_conjugacy(trace: IterationTrace, a,
                             *, tolerance: float | None = None) -> VerificationReport:
    """A-conjugacy structure of the recorded gradients.

    Adjacent pairs satisfy ``g_{k+1} . A g_k = -||g_{k+1}||^2 / alpha_k``;
    all farther pairs (i <= k-1) satisfy ``g_{k+1} . A g_i = 0``.  Residuals
    are normalized by the A-norm product of the participating gradients.
    The products ``A g_k`` of all recorded gradients are one block product.
    A raw array ``a`` is validated by :meth:`MatrixSPD.from_dense` first.
    """
    m = _matrix(a)
    return _identity_report(trace, tolerance, lambda s, tol: _gradient_conjugacy(s, m, tol),
                            "gradient-conjugacy check")


def check_stepsize_equivalence(trace: IterationTrace,
                               *, tolerance: float = STEPSIZE_TOLERANCE) -> VerificationReport:
    """Recompute both stepsize formulas from each record and compare.

    Reports ``|alpha_exact - alpha_orthogonal| / alpha_exact`` per
    iteration.  A formula breaking down on its recorded vectors is reported
    as an infinite residual for that iteration rather than raising.
    """
    return _identity_report(trace, tolerance, _stepsize_equivalence,
                            "stepsize-equivalence check")


def check_finite_termination(trace: IterationTrace, problem: QuadraticProblem,
                             *, tolerance_x: float = SOLUTION_TOLERANCE) -> VerificationReport:
    """Termination within the dimension, against the direct-solve oracle.

    Asserts the run stopped by gradient tolerance in at most ``n``
    iterations, and that the final iterate matches the minimizer from a
    direct solve of ``A x = -b`` to relative tolerance ``tolerance_x``.
    The problem made that solve at construction with the factor of its SPD
    certificate (:meth:`~cgkit.cg.QuadraticProblem.direct_solution`), so
    the check factors nothing.  Both instances are indexed by the final
    iteration.  A negative or NaN ``tolerance_x`` raises
    :class:`~cgkit.errors.ProblemSpecError`.
    """
    _check_nonnegative(tolerance_x, "solution tolerance")
    n = problem.n
    within = (trace.terminated_at <= n
              and trace.termination_reason == TerminationReason.GRADIENT_BELOW_TOLERANCE)
    over = float(max(0, trace.terminated_at - n))
    note = ""
    if trace.termination_reason != TerminationReason.GRADIENT_BELOW_TOLERANCE:
        note = (f"run stopped by {trace.termination_reason.value} after "
                f"{trace.terminated_at} iterations")
    x_oracle = problem.direct_solution()
    err_abs = float(np.linalg.norm(trace.final_x - x_oracle))
    rel = err_abs / max(float(np.linalg.norm(x_oracle)), _FLOOR)
    result = _result(
        "finite_termination", tolerance_x, np.array([over, err_abs]),
        np.array([over, rel]), np.full((2, 1), trace.terminated_at),
        passes=np.array([within, rel <= tolerance_x]), note=note,
        identities=("terminates_within_dimension", "solution_matches_direct_solve"))
    return _report((result,))


def check_beta_agreement(trace: IterationTrace,
                         *, tolerance: float | None = None) -> VerificationReport:
    """Recompute all four direction-coupling formulas per iteration.

    With exact line search on a quadratic FR, HS, PRP and DY coincide; the
    residual per iteration k >= 1 is the pairwise spread
    ``(max - min) / max|value|`` of the four recomputed values (zero when
    all four vanish).  A formula with a vanishing denominator is reported
    for its iteration as an infinite residual.
    """
    strict = DEFAULT_CHECK_TOLERANCE if tolerance is None else tolerance
    return _identity_report(trace, strict, _beta_agreement, "beta-agreement check")


def run_all_checks(trace: IterationTrace, problem: QuadraticProblem,
                   *, tolerance: float | None = None,
                   tolerance_x: float = SOLUTION_TOLERANCE) -> VerificationReport:
    """All five checks merged into one report.

    The record vectors are stacked and the tolerance schedule resolved once
    for all identity checks.  Identity checks need recorded iterations; when
    the trace has none (the start point was already optimal, or recording
    was off) they are skipped with a note and only the termination check
    runs.  A negative or NaN tolerance raises
    :class:`~cgkit.errors.ProblemSpecError`, with or without iterations.
    """
    def families(s: _Stacked, tol: float) -> tuple[CheckResult, ...]:
        return (*_classical(s, tol), *_gradient_conjugacy(s, problem.A, tol),
                *_stepsize_equivalence(s, STEPSIZE_TOLERANCE), *_beta_agreement(s, tol))

    termination = check_finite_termination(trace, problem, tolerance_x=tolerance_x).checks
    return _identity_report(trace, tolerance, families, "verification",
                            tail=termination)
