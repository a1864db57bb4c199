"""Conjugate-gradient iteration engine for convex quadratic minimization.

Minimizes ``f(x) = 0.5 * x.T A x + b.T x`` for SPD ``A``.  The iteration is

    x_{k+1} = x_k + alpha_k d_k,
    d_0 = -g_0,    d_k = -g_k + beta_k d_{k-1}   (k >= 1),

with ``g_k = A x_k + b``.  Two stepsize rules are available and provably
coincide on quadratics:

* exact line search:         alpha_k = -(g_k . d_k) / (d_k . A d_k)
* gradient orthogonality:    alpha_k = -(g_k . g_k) / (g_k . A d_k)

the latter chosen so the new gradient is orthogonal to the current one.
Four direction-coupling rules (FR, HS, PRP, DY) are implemented; with exact
line search on a quadratic they agree.

Every solve can record a full :class:`IterationTrace` (iterate, gradient,
direction, stepsize, and the cached product ``A d_k`` per iteration), which
is what the ``cgkit.verify`` checks consume.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, DimensionError
from .linalg import MatrixSPD, as_vector, dot, solve_direct, spd_validate

__all__ = [
    "StepsizeRule",
    "BetaRule",
    "GradientUpdate",
    "TerminationReason",
    "QuadraticProblem",
    "SolverConfig",
    "IterationRecord",
    "IterationTrace",
    "gradient",
    "objective",
    "beta",
    "direction",
    "stepsize_exact",
    "stepsize_orthogonal",
    "initial_record",
    "step",
    "solve",
    "EPS_DENOMINATOR",
    "DEFAULT_RELATIVE_TOLERANCE",
]

# Denominators at or below this magnitude raise BreakdownError.
EPS_DENOMINATOR = 1e-300

# Default gradient tolerance: ||g_k|| <= 1e-12 * ||g_0||.
DEFAULT_RELATIVE_TOLERANCE = 1e-12


class StepsizeRule(str, enum.Enum):
    EXACT_LINE_SEARCH = "exact"
    GRADIENT_ORTHOGONALITY = "orthogonal"


class BetaRule(str, enum.Enum):
    FR = "fr"
    HS = "hs"
    PRP = "prp"
    DY = "dy"


class GradientUpdate(str, enum.Enum):
    RECURRENCE = "recurrence"
    EXPLICIT = "explicit"


class TerminationReason(str, enum.Enum):
    GRADIENT_BELOW_TOLERANCE = "gradient_below_tolerance"
    ITERATION_CAP = "iteration_cap"
    BREAKDOWN = "breakdown"


class QuadraticProblem:
    """SPD quadratic ``f(x) = 0.5 x.T A x + b.T x``.

    Construction validates dimensions and runs :func:`~cgkit.linalg.spd_validate`
    on ``A``; the unique minimizer solves ``A x = -b``.
    """

    __slots__ = ("A", "b", "validation")

    def __init__(self, A: MatrixSPD, b):
        if not isinstance(A, MatrixSPD):
            A = MatrixSPD.from_dense(A)
        self.A = A
        self.b = as_vector(b, A.n, name="b")
        self.b.setflags(write=False)
        self.validation = spd_validate(A)

    @property
    def n(self) -> int:
        return self.A.n

    def gradient(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient ``A x + b`` of the objective at ``x`` (into ``out`` if given)."""
        return self._gradient(as_vector(x, self.n, name="x"), out)

    def _gradient(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`gradient` of a float64 vector of length ``n`` the caller
        has already checked: the solver's own iterates skip the
        finiteness pass."""
        return np.add(self.A.matvec(x), self.b, out=out)

    def objective(self, x) -> float:
        x = as_vector(x, self.n, name="x")
        return 0.5 * dot(x, self.A.matvec(x)) + dot(self.b, x)

    def direct_solution(self) -> np.ndarray:
        """Minimizer from a direct solve of ``A x = -b`` (oracle route): dense
        Cholesky, or banded Cholesky after RCM ordering for CSR storage."""
        return solve_direct(self.A, -self.b)

    def __repr__(self) -> str:
        return f"QuadraticProblem(n={self.n}, storage={self.A.storage!r})"


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``grad_tolerance=None`` resolves to ``1e-12 * ||g_0||`` at solve time;
    ``max_iterations=None`` resolves to the problem dimension ``n`` (the
    exact-arithmetic termination bound; pass ``2 * n`` for ill-conditioned
    floating-point runs).
    """

    stepsize_rule: StepsizeRule = StepsizeRule.EXACT_LINE_SEARCH
    beta_rule: BetaRule = BetaRule.FR
    gradient_update: GradientUpdate = GradientUpdate.RECURRENCE
    grad_tolerance: float | None = None
    max_iterations: int | None = None
    record_trace: bool = True

    def __post_init__(self):
        object.__setattr__(self, "stepsize_rule", StepsizeRule(self.stepsize_rule))
        object.__setattr__(self, "beta_rule", BetaRule(self.beta_rule))
        object.__setattr__(self, "gradient_update", GradientUpdate(self.gradient_update))
        if self.grad_tolerance is not None and not self.grad_tolerance >= 0.0:
            raise ValueError("grad_tolerance must be nonnegative")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """State at iteration ``k`` plus the step taken from it.

    ``beta`` is the coupling used to build ``d`` and is ``None`` at k=0.
    A *terminal* record (returned by :func:`step` when the new gradient is
    already below tolerance) carries only ``k``, ``x`` and ``g``; the
    direction, stepsize and cached product are ``None`` because no further
    step is defined there.
    """

    k: int
    x: np.ndarray
    g: np.ndarray
    d: np.ndarray | None
    alpha: float | None
    beta: float | None
    Ad: np.ndarray | None

    def __post_init__(self):
        for arr in (self.x, self.g, self.d, self.Ad):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def is_terminal(self) -> bool:
        return self.alpha is None

    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.g))


@dataclass(frozen=True)
class IterationTrace:
    """Complete evidence of a solve.

    ``records[k]`` holds iteration ``k`` for every step actually taken
    (``records[k].k == k``); ``final_x``/``final_g`` hold the state the run
    stopped at, and ``terminated_at == len(records)`` counts the steps.
    The final gradient is *not* a record: when the run converged it sits at
    the numerical minimizer, where no step (and none of the per-iteration
    identities' hypotheses) applies.
    """

    records: tuple[IterationRecord, ...]
    final_x: np.ndarray
    final_g: np.ndarray
    terminated_at: int
    termination_reason: TerminationReason
    grad_tolerance: float
    breakdown: str | None = None

    def __post_init__(self):
        self.final_x.setflags(write=False)
        self.final_g.setflags(write=False)
        for i, rec in enumerate(self.records):
            if rec.k != i:
                raise ValueError(f"records[{i}] has k={rec.k}; indices must be contiguous")

    def final_grad_norm(self) -> float:
        return float(np.linalg.norm(self.final_g))


def gradient(problem: QuadraticProblem, x) -> np.ndarray:
    """Gradient ``A x + b`` at ``x``."""
    return problem.gradient(x)


def objective(problem: QuadraticProblem, x) -> float:
    """Objective value ``0.5 x.T A x + b.T x`` at ``x``."""
    return problem.objective(x)


def beta(rule: BetaRule, g_k, g_prev, d_prev) -> float:
    """Direction-coupling scalar for the chosen rule (k >= 1).

    With ``y = g_k - g_prev``:

        FR  = (g_k . g_k)   / (g_prev . g_prev)
        HS  = (g_k . y)     / (d_prev . y)
        PRP = (g_k . y)     / (g_prev . g_prev)
        DY  = (g_k . g_k)   / (d_prev . y)

    Raises :class:`BreakdownError` on a vanishing denominator.  That cannot
    happen in a healthy run (the loop terminates on small gradients first),
    so it is a loud guard rather than a silent zero.
    """
    rule = BetaRule(rule)
    g_k = np.asarray(g_k, dtype=np.float64)
    g_prev = np.asarray(g_prev, dtype=np.float64)
    d_prev = np.asarray(d_prev, dtype=np.float64)
    if not (g_k.shape == g_prev.shape == d_prev.shape):
        raise DimensionError("beta operands must share one length")
    return _beta(rule, g_k, g_prev, d_prev, dot(g_k, g_k), dot(g_prev, g_prev),
                 np.empty_like(g_k))


def _beta(rule: BetaRule, g_k, g_prev, d_prev, gg: float, gg_prev: float,
          y: np.ndarray) -> float:
    """:func:`beta` given ``gg = g_k . g_k`` and ``gg_prev = g_prev . g_prev``;
    ``y`` is scratch space for ``g_k - g_prev``."""
    if rule in (BetaRule.FR, BetaRule.PRP):
        den = gg_prev
        if den <= EPS_DENOMINATOR:
            raise BreakdownError(
                f"{rule.name} denominator ||g_prev||^2 = {den:.3e} is numerically zero",
                rule=rule.name)
    else:
        den = dot(d_prev, np.subtract(g_k, g_prev, out=y))
        if abs(den) <= EPS_DENOMINATOR:
            raise BreakdownError(
                f"{rule.name} denominator d_prev.(g_k - g_prev) = {den:.3e} "
                "is numerically zero", rule=rule.name)

    if rule in (BetaRule.FR, BetaRule.DY):
        return gg / den
    return dot(g_k, np.subtract(g_k, g_prev, out=y)) / den  # HS, PRP


def direction(g_k, beta_k: float | None = None, d_prev=None) -> np.ndarray:
    """Search direction: ``-g_0`` at k=0, else ``-g_k + beta_k * d_prev``."""
    g_k = np.asarray(g_k, dtype=np.float64)
    if d_prev is None:
        return -g_k
    if beta_k is None:
        raise ValueError("beta_k is required when d_prev is given")
    d_prev = np.asarray(d_prev, dtype=np.float64)
    if d_prev.shape != g_k.shape:
        raise DimensionError("direction operands must share one length")
    return -g_k + beta_k * d_prev


def stepsize_exact(g_k, d_k, Ad_k, *, eps_den: float = EPS_DENOMINATOR) -> float:
    """Exact line-search stepsize ``-(g_k . d_k) / (d_k . A d_k)``.

    The denominator is positive for d_k != 0 under SPD A; values at or
    below ``eps_den`` raise :class:`BreakdownError`.
    """
    den = dot(d_k, Ad_k)
    if den <= eps_den:
        raise BreakdownError(
            f"exact-stepsize denominator d.Ad = {den:.3e} is numerically zero "
            "or negative", rule="exact")
    return -dot(g_k, d_k) / den


def stepsize_orthogonal(g_k, Ad_k, *, eps_den: float = EPS_DENOMINATOR) -> float:
    """Stepsize ``-(g_k . g_k) / (g_k . A d_k)`` making the next gradient
    orthogonal to the current one.

    On a quadratic this equals the exact line-search stepsize; the
    denominator equals ``-(d_k . A d_k)`` in exact arithmetic and is
    negative for g_k != 0.
    """
    den = dot(g_k, Ad_k)
    if abs(den) <= eps_den:
        raise BreakdownError(
            f"orthogonality-stepsize denominator g.Ad = {den:.3e} is "
            "numerically zero", rule="orthogonal")
    return -dot(g_k, g_k) / den


def _stepsize(rule: StepsizeRule, g, d, Ad) -> float:
    if rule == StepsizeRule.EXACT_LINE_SEARCH:
        return stepsize_exact(g, d, Ad)
    return stepsize_orthogonal(g, Ad)


def _iterate(problem: QuadraticProblem, config: SolverConfig,
             prev: IterationRecord | None, gg_prev: float | None,
             row: np.ndarray, tmp: np.ndarray, tol: float = -math.inf,
             cap: float = math.inf) -> tuple[IterationRecord, float, TerminationReason | None]:
    """Iteration ``k`` of the recurrence, written into the buffers
    ``row = (x, g, d, Ad)``.

    This is the one implementation of the step, its breakdown guards and
    its tolerance test; :func:`solve`, :func:`initial_record` and
    :func:`step` differ only in the buffers they hand it.  With ``prev``
    (the complete record ``k - 1``, whose ``g . g`` is ``gg_prev``) it
    writes ``x_k = x + alpha d`` and ``g_k`` (by the recurrence
    ``g + alpha Ad`` or as ``A x_k + b``); with ``prev=None`` the caller has
    put ``x_0`` and ``g_0`` in ``row`` and ``k = 0``.  ``tmp`` is scratch.

    Returns ``(record, g_k . g_k, reason)``.  When ``||g_k|| <= tol`` or
    ``k >= cap`` the record is terminal and ``reason`` says which;
    otherwise ``d_k`` and ``A d_k`` go into ``row``, the record is complete
    and ``reason`` is None.  A vanishing denominator raises
    :class:`BreakdownError` at iteration ``k``.
    """
    x, g, d, Ad = row
    k = 0 if prev is None else prev.k + 1
    if prev is not None:
        np.add(prev.x, np.multiply(prev.d, prev.alpha, out=tmp), out=x)
        if config.gradient_update == GradientUpdate.RECURRENCE:
            np.add(prev.g, np.multiply(prev.Ad, prev.alpha, out=tmp), out=g)
        else:
            problem._gradient(x, out=g)
    gg = dot(g, g)
    reason = None
    if math.sqrt(gg) <= tol:  # sqrt(g . g) is np.linalg.norm(g) to the bit
        reason = TerminationReason.GRADIENT_BELOW_TOLERANCE
    elif k >= cap:
        reason = TerminationReason.ITERATION_CAP
    if reason is not None:
        return (IterationRecord(k=k, x=x, g=g, d=None, alpha=None, beta=None, Ad=None),
                gg, reason)
    try:
        if prev is None:
            beta_k = None
            np.negative(g, out=d)
        else:
            beta_k = _beta(config.beta_rule, g, prev.g, prev.d, gg, gg_prev, tmp)
            # -g + beta d_prev, rounded identically
            np.subtract(np.multiply(prev.d, beta_k, out=tmp), g, out=d)
        # a traced solve's pages fault in far faster as one block than as
        # a fresh array per product, so A d is copied into the row too
        np.copyto(Ad, problem.A.matvec(d))
        alpha = _stepsize(config.stepsize_rule, g, d, Ad)
    except BreakdownError as err:
        raise err.at_iteration(k) from None
    return IterationRecord(k=k, x=x, g=g, d=d, alpha=alpha, beta=beta_k, Ad=Ad), gg, None


def _start(problem: QuadraticProblem, x_0, row: np.ndarray) -> None:
    """Put ``x_0`` (default: zero) and ``g_0 = A x_0 + b`` into ``row``."""
    x, g, _, _ = row
    if x_0 is None:
        x.fill(0.0)
    else:
        np.copyto(x, as_vector(x_0, problem.n, name="x_0"))
    problem._gradient(x, out=g)


def _trace_rows(n: int, count: int):
    """At most ``count`` fresh ``(x, g, d, Ad)`` rows for a traced solve.

    The rows come from blocks of 8, 16, 32, ... rows, each allocated when
    the run reaches it: storage follows the steps taken, not the cap, and
    no block is ever copied into a larger one.
    """
    size = 8
    while count > 0:
        block = np.empty((min(size, count), 4, n))
        count -= len(block)
        size *= 2
        yield from block


def _ring_rows(n: int):
    """Two ``(x, g, d, Ad)`` rows, handed out in turn to an untraced solve."""
    ring = np.empty((2, 4, n))
    while True:
        yield from ring


def initial_record(problem: QuadraticProblem, x_0, config: SolverConfig | None = None) -> IterationRecord:
    """Complete record at k=0: ``d_0 = -g_0`` with its stepsize and ``A d_0``."""
    row = np.empty((4, problem.n))
    _start(problem, x_0, row)
    record, _, _ = _iterate(problem, config or SolverConfig(), None, None, row,
                            np.empty(problem.n))
    return record


def step(problem: QuadraticProblem, record_k: IterationRecord,
         config: SolverConfig | None = None, *, tol: float | None = None) -> IterationRecord:
    """Advance one iteration from a complete record.

    Computes ``x_{k+1} = x_k + alpha_k d_k`` and the new gradient (by the
    one-matvec recurrence ``g + alpha * Ad`` or explicitly as ``A x + b``
    per ``config.gradient_update``).  If the new gradient norm is at or
    below ``tol`` (default: ``config.grad_tolerance`` or exact zero), a
    terminal record with only ``(k+1, x, g)`` is returned; otherwise the
    new direction, its cached product and stepsize complete the record.

    The input record must be complete and its gradient above tolerance
    (``ValueError`` otherwise: the caller must terminate first).
    """
    config = config or SolverConfig()
    if record_k.is_terminal or record_k.d is None or record_k.Ad is None:
        raise ValueError("step requires a complete (non-terminal) record")
    if tol is None:
        tol = config.grad_tolerance if config.grad_tolerance is not None else 0.0
    gg = dot(record_k.g, record_k.g)
    if math.sqrt(gg) <= tol:
        raise ValueError(
            "gradient already at or below tolerance; caller must terminate")
    record, _, _ = _iterate(problem, config, record_k, gg, np.empty((4, problem.n)),
                            np.empty(problem.n), tol)
    return record


def solve(problem: QuadraticProblem, x_0=None,
          config: SolverConfig | None = None) -> tuple[np.ndarray, IterationTrace]:
    """Run the iteration from ``x_0`` (default: zero vector).

    Stops when ``||g_k|| <= tol``, at ``max_iterations``, or on breakdown;
    the reason lands in ``trace.termination_reason`` (a breakdown is never
    a silent wrong answer).  With ``config.record_trace`` the trace carries
    one complete record per step taken, including the cached ``A d_k``;
    its vectors are read-only views of row blocks allocated as the run
    proceeds.  Without it, two rows of buffers are reused throughout.
    """
    config = config or SolverConfig()
    n = problem.n
    cap = config.max_iterations if config.max_iterations is not None else n
    rows = _trace_rows(n, cap + 1) if config.record_trace else _ring_rows(n)
    tmp = np.empty(n)
    row = next(rows)
    _start(problem, x_0, row)
    tol = (config.grad_tolerance if config.grad_tolerance is not None
           else DEFAULT_RELATIVE_TOLERANCE * float(np.linalg.norm(row[1])))

    records: list[IterationRecord] = []
    taken = 0
    breakdown_note: str | None = None
    record = gg = None
    try:
        while True:
            record, gg, reason = _iterate(problem, config, record, gg, row, tmp, tol, cap)
            if reason is not None:
                break
            if config.record_trace:
                records.append(record)
            taken += 1
            row = next(rows)
    except BreakdownError as err:
        reason = TerminationReason.BREAKDOWN
        breakdown_note = str(err)

    # copies, so that keeping the answer does not keep a block of rows alive
    x, g = row[0].copy(), row[1].copy()
    trace = IterationTrace(tuple(records), x, g, taken, reason, tol,
                           breakdown=breakdown_note)
    return x, trace
