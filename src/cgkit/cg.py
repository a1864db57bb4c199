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

Each formula is written once, with its breakdown guard and wording: the
stepsizes in :func:`_stepsize_exact` and :func:`_stepsize_orthogonal`, the
couplings in :func:`_beta`.  The solver calls them on its own buffers;
:func:`stepsize_exact`, :func:`stepsize_orthogonal` and :func:`beta` check
their operands and call them; and the verifier marks broken steps with
their guard, :func:`_vanishes`.

Every solve can record an :class:`IterationTrace`, which is what the
``cgkit.verify`` checks consume.  It stores, per iteration, the scalars
``alpha_k`` and ``beta_k``, and ``x_0`` and ``g_0`` once; for dense storage
also the cached product ``A d_k``.  Gradients, iterates and directions are
fixed by those: the trace replays ``x_{k+1} = x_k + alpha_k d_k``, the
solver's own gradient update (the recurrence ``g_k + alpha_k A d_k``, or
``A x_{k+1} + b`` in explicit mode), ``d_k = -g_k + beta_k d_{k-1}`` and,
for CSR storage, ``A d_k`` with the solver's own operations, so they come
back bit for bit, and only for callers that read them.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, IncompleteTraceError
from .linalg import (MatrixSPD, _certified_solve, _check_count, _check_nonnegative,
                     _matrix, _operands, as_vector, dot)

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

    Construction validates dimensions, keeps a read-only copy of ``b`` (the
    caller's array stays writeable) and factors ``A`` once: the factor of
    :func:`~cgkit.linalg.spd_validate` certifies ``A`` and gives
    the unique minimizer, the solution of ``A x = -b``, which is kept
    read-only (``n`` floats) while the factor is dropped.
    """

    __slots__ = ("A", "b", "_x_star")

    def __init__(self, A: MatrixSPD, b):
        self.A = A = _matrix(A)
        self.b = np.array(as_vector(b, A.n, name="b"))
        self.b.setflags(write=False)
        self._x_star = _certified_solve(A, -self.b)
        self._x_star.setflags(write=False)

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
        return np.add(self.A._a @ x, self.b, out=out)

    def objective(self, x) -> float:
        x = as_vector(x, self.n, name="x")
        return 0.5 * dot(x, self.A.matvec(x)) + dot(self.b, x)

    def direct_solution(self) -> np.ndarray:
        """Minimizer from the direct solve of ``A x = -b`` made at
        construction (oracle route: NumPy's dense Cholesky and blocked
        substitution; for CSR storage LAPACK's SPD tridiagonal L D Lᵀ when
        ``A`` is tridiagonal in its own order, else SciPy's banded Cholesky
        after RCM ordering unless the matrix's own order already has the
        narrowest possible band), read-only; it equals
        ``solve_direct(A, -b)`` bit for bit and costs no factorization."""
        return self._x_star

    def __repr__(self) -> str:
        return f"QuadraticProblem(n={self.n}, storage={self.A.storage!r})"


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``grad_tolerance=None`` resolves to ``1e-12 * ||g_0||`` at solve time;
    ``max_iterations=None`` resolves to the problem dimension ``n`` (the
    exact-arithmetic termination bound; pass ``2 * n`` for ill-conditioned
    floating-point runs).  A negative tolerance, or a cap that is not an
    integer of at least 1, raises :class:`~cgkit.errors.ProblemSpecError`.
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
        _check_nonnegative(self.grad_tolerance, "grad_tolerance")
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations",
                               _check_count(self.max_iterations, "max_iterations"))


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

    A traced :func:`solve` that takes a step stores ``x_0``, ``g_0`` and
    the scalars ``alpha_k``, ``beta_k`` (for dense storage also each
    product ``A d_k`` as the solve returned it), and its ``records`` is a
    view over them that keeps nothing it replays: ``len()`` costs nothing,
    ``records[k]`` replays the steps through the block that holds step k,
    and iterating replays each step once.  A traced solve that takes no
    step has ``records == ()``.
    :meth:`steps` hands out the named vectors and scalars one step at a
    time, and :meth:`columns` stacked copies of them.  Both read
    :meth:`_blocks`, which replays ``g_k`` and ``d_k`` in row blocks,
    ``x_k`` only when it is named or the gradient is explicit, and for CSR
    storage ``A d_k`` unless the gradient is explicit and AD is not named;
    each replayed product costs the matvec the solve paid.  A trace built
    by hand from a tuple of records reads the records' own vectors.
    """

    records: Sequence[IterationRecord]
    final_x: np.ndarray
    final_g: np.ndarray
    terminated_at: int
    termination_reason: TerminationReason
    grad_tolerance: float
    breakdown: str | None = None

    def __post_init__(self):
        self.final_x.setflags(write=False)
        self.final_g.setflags(write=False)
        if isinstance(self.records, _TraceRecords):
            return  # numbered by construction; checking would replay them
        for i, rec in enumerate(self.records):
            if rec.k != i:
                raise ValueError(f"records[{i}] has k={rec.k}; indices must be contiguous")

    def final_grad_norm(self) -> float:
        return float(np.linalg.norm(self.final_g))

    @property
    def stored_bytes(self) -> int:
        """Bytes of the per-iteration vectors the trace holds.

        For a traced solve on dense storage that is ``x_0``, ``g_0`` and
        the K products ``A d_k``, (K + 2) n float64 values.  On CSR storage
        it is ``x_0`` and ``g_0``, 2 n values.  A traced solve that takes no
        step keeps no records and holds 0 bytes.  Replayed vectors are not
        held.  A trace built by hand counts its records' vectors.
        """
        if isinstance(self.records, _TraceRecords):
            return self.records.stored_bytes
        return sum(vector.nbytes for rec in self.records
                   for vector in (rec.x, rec.g, rec.d, rec.Ad) if vector is not None)

    def steps(self, *names: str) -> Iterator[tuple]:
        """One tuple of the named values per recorded iteration, in order:
        the rows of :meth:`_blocks`.

        ``"X"``, ``"G"``, ``"D"`` and ``"AD"`` name the read-only vectors
        ``x_k``, ``g_k``, ``d_k`` and ``A d_k``; ``"alpha"``, ``"beta"``
        and ``"gg"`` the scalars, ``beta`` NaN where none was recorded
        (k = 0) and ``gg`` the solver's ``g_k . g_k`` (for a trace built by
        hand, computed from the record's gradient).  A traced solve's
        vectors are read-only row views of its replay blocks, so a caller
        that keeps no step's vectors holds a few blocks at a time, not K
        vectors.  A record lacking a named vector or its stepsize raises
        :class:`~cgkit.errors.IncompleteTraceError`.
        """
        if not names:
            return itertools.repeat((), len(self.records))
        return _rows(self._blocks(names))

    def columns(self, *names: str) -> tuple[np.ndarray, ...]:
        """Fresh arrays, one per name, stacking :meth:`steps`: a vector name
        gives a (K, n) array of rows, a scalar name (``"alpha"``, ``"beta"``
        or ``"gg"``) a length-K array.  A traced solve replays X, G and D
        straight into their rows."""
        if not names:
            return ()
        K, n = len(self.records), self.final_x.size
        out = tuple(np.empty((K,) if name in _SCALARS else (K, n)) for name in names)
        k = 0
        for block in self._blocks(names, dict(zip(names, out))):
            for column, values in zip(out, block):
                # rows replayed into this column are copied onto themselves,
                # which NumPy skips
                column[k:k + len(values)] = values
            k += len(values)
        return out

    def _blocks(self, names: tuple[str, ...], into: dict | None = None) -> Iterator[tuple]:
        """The one reader of the trace: per block of steps, for each name a
        read-only (rows, n) array of a vector or a list of a scalar.
        ``"gg"`` names ``g_k . g_k``, as the solver computed it.

        A traced solve hands out its replay blocks (see
        :meth:`_TraceRecords._replay`), writing a vector that ``into`` maps
        to a (K, n) array into its rows; a trace built by hand hands out
        each record as a block of one row."""
        if isinstance(self.records, _TraceRecords):
            return self.records._replay(names, into or {})
        return (tuple(_record_block(rec, name) for name in names) for rec in self.records)


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
    so it is a loud guard rather than a silent zero.  The formulas, their
    guards and the breakdown wording live in :func:`_beta` alone, which the
    solver calls on its own buffers.
    """
    rule = BetaRule(rule)
    g_k, g_prev, d_prev = _operands("beta", g_k, g_prev, d_prev)
    return _beta(rule, g_k, g_prev, d_prev, float(np.dot(g_k, g_k)),
                 float(np.dot(g_prev, g_prev)), np.empty_like(g_k))


def _vanishes(den, signed: bool):
    """The breakdown guard of a denominator, elementwise on arrays: true at
    or below ``EPS_DENOMINATOR``.  A ``signed`` denominator (g.Ad,
    d_prev.(g_k - g_prev)) may have either sign and is tested in magnitude;
    d.Ad and ||g_prev||^2 are positive in exact arithmetic and are tested
    as they are."""
    return (abs(den) if signed else den) <= EPS_DENOMINATOR


def _beta(rule: BetaRule, g_k, g_prev, d_prev, gg: float, gg_prev: float,
          y: np.ndarray) -> float:
    """:func:`beta` of checked operands, given ``gg = g_k . g_k`` and
    ``gg_prev = g_prev . g_prev``; ``y`` is scratch space for
    ``g_k - g_prev``, formed once for the rules that read it."""
    if rule is not BetaRule.FR:
        np.subtract(g_k, g_prev, out=y)
    if rule in (BetaRule.FR, BetaRule.PRP):
        den, name, signed = gg_prev, "||g_prev||^2", False
    else:
        den, name, signed = float(np.dot(d_prev, y)), "d_prev.(g_k - g_prev)", True
    if _vanishes(den, signed):
        raise BreakdownError(f"{rule.name} denominator {name} = {den:.3e} "
                             "is numerically zero", rule=rule.name)
    return (gg if rule in (BetaRule.FR, BetaRule.DY) else float(np.dot(g_k, y))) / den


def direction(g_k, beta_k: float | None = None, d_prev=None) -> np.ndarray:
    """Search direction: ``-g_0`` at k=0, else ``-g_k + beta_k * d_prev``.

    ``beta_k`` and ``d_prev`` are given together or not at all."""
    if d_prev is None:
        if beta_k is not None:
            raise ValueError("d_prev is required when beta_k is given")
        g_k, = _operands("direction", g_k)
    elif beta_k is None:
        raise ValueError("beta_k is required when d_prev is given")
    else:
        g_k, d_prev = _operands("direction", g_k, d_prev)
    return _direction(g_k, d_prev, beta_k, np.empty_like(g_k), np.empty_like(g_k))


def _direction(g, d_prev, beta_k, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``d_k`` into ``out``: ``-g_0`` when ``d_prev`` is None, else
    ``beta_k d_prev - g_k`` (``-g_k + beta_k d_prev`` to the bit).  ``out``
    may be ``d_prev``.  The solver and the trace replay both round d_k here."""
    if d_prev is None:
        return np.negative(g, out=out)
    return np.subtract(np.multiply(d_prev, beta_k, out=tmp), g, out=out)


def _add_scaled(u, v, s: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``u + s v`` into ``out`` (which may be ``u``): the rounding of
    ``x_{k+1} = x_k + alpha_k d_k`` and of the recurrence ``g + alpha_k A d_k``."""
    return np.add(u, np.multiply(v, s, out=tmp), out=out)


def _advance(problem: QuadraticProblem, update: GradientUpdate, alpha: float,
             d, Ad, x, g, x_out, g_out: np.ndarray, tmp: np.ndarray):
    """``(x_{k+1}, g_{k+1})`` from step ``k``, into ``x_out`` and ``g_out``
    (which may be ``x`` and ``g``): ``x_k + alpha_k d_k``, and the gradient
    by the recurrence ``g_k + alpha_k A d_k`` or as ``A x_{k+1} + b``.  With
    ``x`` None under the recurrence (a trace replay that is not asked for
    the iterates) the iterate is skipped and comes back None.  The solver
    and the trace replay both advance here, so a replayed step equals the
    solved one to the bit."""
    if x is not None:
        x = _add_scaled(x, d, alpha, x_out, tmp)
    if update == GradientUpdate.EXPLICIT:
        return x, problem._gradient(x, out=g_out)
    return x, _add_scaled(g, Ad, alpha, g_out, tmp)


def _product(a: MatrixSPD, d: np.ndarray) -> np.ndarray:
    """``A d``, the fresh array that BLAS or SciPy returns.  The solver and
    the trace replay of CSR storage both multiply here, with the one
    kernel, so a recomputed ``A d_k`` equals the solved one to the bit."""
    return a._a @ d


def stepsize_exact(g_k, d_k, Ad_k) -> float:
    """Exact line-search stepsize ``-(g_k . d_k) / (d_k . A d_k)``.

    The denominator is positive for d_k != 0 under SPD A; values at or
    below ``EPS_DENOMINATOR`` raise :class:`BreakdownError`.  The formula
    lives in :func:`_stepsize_exact`, which the solver calls.
    """
    return _stepsize_exact(*_operands("stepsize", g_k, d_k, Ad_k))


def _stepsize_exact(g, d, Ad) -> float:
    """:func:`stepsize_exact` of checked operands, guard and wording included."""
    den = float(np.dot(d, Ad))
    if _vanishes(den, signed=False):
        raise BreakdownError(
            f"exact-stepsize denominator d.Ad = {den:.3e} is numerically zero "
            "or negative", rule="exact")
    return -float(np.dot(g, d)) / den


def stepsize_orthogonal(g_k, Ad_k) -> float:
    """Stepsize ``-(g_k . g_k) / (g_k . A d_k)`` making the next gradient
    orthogonal to the current one.

    On a quadratic this equals the exact line-search stepsize; the
    denominator equals ``-(d_k . A d_k)`` in exact arithmetic and is
    negative for g_k != 0.  The formula lives in
    :func:`_stepsize_orthogonal`, which the solver calls.
    """
    g_k, Ad_k = _operands("stepsize", g_k, Ad_k)
    return _stepsize_orthogonal(g_k, Ad_k, float(np.dot(g_k, g_k)))


def _stepsize_orthogonal(g, Ad, gg: float) -> float:
    """:func:`stepsize_orthogonal` of checked operands, given ``gg = g . g``,
    guard and wording included."""
    den = float(np.dot(g, Ad))
    if _vanishes(den, signed=True):
        raise BreakdownError(
            f"orthogonality-stepsize denominator g.Ad = {den:.3e} is "
            "numerically zero", rule="orthogonal")
    return -gg / den


def _iterate(problem: QuadraticProblem, config: SolverConfig, k: int,
             x: np.ndarray, g: np.ndarray, d: np.ndarray, tmp: np.ndarray,
             prev: tuple | None = None, tol: float = -math.inf, cap: float = math.inf
             ) -> tuple[float, float | None, float | None, np.ndarray | None,
                        TerminationReason | None]:
    """Iteration ``k`` of the recurrence, on the caller's buffers.

    This is the one implementation of the step and its tolerance test,
    over the formulas' kernels; :func:`solve`, :func:`initial_record` and
    :func:`step` differ only in the buffers they hand it.  At ``k = 0``
    (``prev`` None) the caller has put ``x_0`` in ``x`` and ``g_0`` in
    ``g``.  Otherwise ``x`` and ``d`` hold ``x_{k-1}`` and ``d_{k-1}``,
    ``prev = (g_{k-1}, A d_{k-1}, alpha_{k-1}, g_{k-1} . g_{k-1})``, ``x``
    is advanced in place to ``x_k`` and ``g_k`` goes into ``g`` by
    :func:`_advance`, the update the trace replays.  ``tmp`` is scratch.

    Returns ``(g_k . g_k, alpha_k, beta_k, Ad, reason)``.  When
    ``||g_k|| <= tol`` or ``k >= cap`` the step is terminal: ``reason`` says
    which and the other three are None.  Otherwise ``d_k`` replaces
    ``d_{k-1}`` in ``d`` and ``Ad`` is the array :func:`_product` returns,
    which a traced dense solve keeps.  A vanishing denominator raises
    :class:`BreakdownError` at iteration ``k``.
    """
    if prev is not None:
        g_prev, Ad_prev, alpha_prev, gg_prev = prev
        _advance(problem, config.gradient_update, alpha_prev, d, Ad_prev,
                 x, g_prev, x, g, tmp)
    gg = float(np.dot(g, g))
    reason = None
    if math.sqrt(gg) <= tol:  # sqrt(g . g) is np.linalg.norm(g) to the bit
        reason = TerminationReason.GRADIENT_BELOW_TOLERANCE
    elif k >= cap:
        reason = TerminationReason.ITERATION_CAP
    if reason is not None:
        return gg, None, None, None, reason
    # the buffers are the solver's own, so the formulas' kernels take them
    # unchecked
    try:
        beta_k = None if prev is None else _beta(config.beta_rule, g, g_prev, d, gg,
                                                 gg_prev, tmp)
        _direction(g, None if prev is None else d, beta_k, d, tmp)
        Ad = _product(problem.A, d)
        alpha = (_stepsize_exact(g, d, Ad)
                 if config.stepsize_rule is StepsizeRule.EXACT_LINE_SEARCH
                 else _stepsize_orthogonal(g, Ad, gg))
    except BreakdownError as err:
        raise err.at_iteration(k) from None
    return gg, alpha, beta_k, Ad, None


def _start(problem: QuadraticProblem, x_0, x: np.ndarray, g: np.ndarray) -> None:
    """Put ``x_0`` (default: zero) into ``x`` and ``g_0 = A x_0 + b`` into ``g``."""
    if x_0 is None:
        x.fill(0.0)
    else:
        np.copyto(x, as_vector(x_0, problem.n, name="x_0"))
    problem._gradient(x, out=g)


# Largest replay block: the rows of one vector it holds stay within 256 kB.
_BLOCK_BYTES = 1 << 18


def _block_len(n: int) -> int:
    """Rows per replay block for vectors of length ``n``: the largest power
    of two of rows that stays within ``_BLOCK_BYTES``, and at least one."""
    return 1 << max(0, (_BLOCK_BYTES // (8 * n)).bit_length() - 1)


_RECORD_NAMES = ("X", "G", "D", "AD", "alpha")


class _TraceRecords(Sequence):
    """The records of a traced solve that took at least one step, over what
    it stored: ``x_0``, ``g_0``, ``alpha_k``, ``beta_k``, the solver's
    ``g_k . g_k`` and, for dense storage only, the K products ``A d_k`` the
    solve returned (``ad_rows`` is empty for CSR storage).

    The records are a view of :meth:`_replay`, the one replay, and keep
    nothing of it: iterating runs it once and hands out each record with
    copies of its step's rows, and ``records[k]`` runs it to the block that
    holds step k and copies that row.  ``reversed()`` and ``.index()`` are
    :class:`~collections.abc.Sequence`'s per-index mixins, so each costs
    O(K^2) steps.  Equality is identity: copied records hold distinct
    arrays, whose comparison has no single truth value."""

    __slots__ = ("_problem", "_update", "_x0", "_g0", "_ad_rows", "_alpha",
                 "_beta", "_gg")

    def __init__(self, problem, update, x0, g0, ad_rows, alphas, betas, ggs):
        for array in (x0, g0, *ad_rows):
            array.setflags(write=False)
        self._problem, self._update = problem, update
        self._x0, self._g0 = x0, g0
        self._ad_rows = ad_rows
        self._alpha = alphas
        self._beta = betas  # None at k = 0
        self._gg = ggs

    def __len__(self) -> int:
        return len(self._alpha)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        k = range(len(self))[index]  # a tuple's negative indices and IndexError
        return self._record(k, next(itertools.islice(
            _rows(self._replay(_RECORD_NAMES, {})), k, None)))

    def __iter__(self) -> Iterator[IterationRecord]:
        return itertools.starmap(self._record,
                                 enumerate(_rows(self._replay(_RECORD_NAMES, {}))))

    def _record(self, k: int, row: tuple) -> IterationRecord:
        """Record ``k`` from its row of :data:`_RECORD_NAMES`, with copies of
        the row's vectors, so that keeping it keeps no replay block."""
        x, g, d, Ad, alpha = row
        return IterationRecord(k=k, x=x.copy(), g=g.copy(), d=d.copy(), alpha=alpha,
                               beta=self._beta[k], Ad=Ad.copy())

    @property
    def stored_bytes(self) -> int:
        return (len(self._ad_rows) + 2) * self._x0.nbytes

    def _replay(self, names, into: dict):
        """:meth:`IterationTrace._blocks` of a traced solve, in blocks of
        :func:`_block_len` rows.

        Each block holds at most ``_BLOCK_BYTES`` of a vector.  ``"X"``,
        ``"G"``, ``"D"`` and ``"AD"`` go into their rows of ``into[name]``
        if given, into fresh arrays otherwise.

        One row loop replays each step as the solver took it: ``g_k`` (and
        ``x_k`` when X is named or the gradient is explicit) through
        :func:`_advance`, ``d_k`` through :func:`_direction` and, for CSR
        storage, ``A d_k`` through :func:`_product`, unless the gradient is
        explicit and AD is not named.  Dense storage reads the stored
        ``A d_k`` and copies a block of them only when AD is named.
        """
        explicit = self._update == GradientUpdate.EXPLICIT
        dense = self._problem.A.is_dense
        vector_names = ["G", "D"] + ["X"] * (explicit or "X" in names)
        if "AD" in names or not (dense or explicit):
            vector_names.append("AD")
        n, K = self._x0.size, len(self)
        size = _block_len(n)
        scalars = {"alpha": self._alpha, "gg": self._gg,
                   "beta": [math.nan if b is None else b for b in self._beta]}
        tmp = np.empty(n)
        # the last step's vectors, carried from block to block
        x, g, d, ad = self._x0 if "X" in vector_names else None, self._g0, None, None
        for k0 in range(0, K, size):
            k1 = min(k0 + size, K)
            vectors = {name: into[name][k0:k1] if name in into else np.empty((k1 - k0, n))
                       for name in vector_names}
            X, G, D, AD = (vectors.get(name) for name in ("X", "G", "D", "AD"))
            if dense and AD is not None:
                AD[:] = self._ad_rows[k0:k1]
            if k0 == 0:
                G[0] = g
                if X is not None:
                    X[0] = x
            for i, k in enumerate(range(k0, k1)):
                if k:
                    x, g = _advance(self._problem, self._update, self._alpha[k - 1], d,
                                    ad, x, g, None if X is None else X[i], G[i], tmp)
                d = _direction(G[i], d, self._beta[k], D[i], tmp)
                if dense:
                    ad = self._ad_rows[k]
                elif AD is not None:
                    ad = AD[i] = _product(self._problem.A, d)
            for block in vectors.values():
                block.setflags(write=False)
            yield tuple(scalars[name][k0:k1] if name in scalars else vectors[name]
                        for name in names)


_SCALARS = ("alpha", "beta", "gg")
_RECORD_FIELDS = {"X": "x", "G": "g", "D": "d", "AD": "Ad", "alpha": "alpha",
                  "beta": "beta"}


def _record_block(rec: IterationRecord, name: str):
    """The value ``name`` of a hand-built record as a block of one row."""
    if name == "gg":
        return [float(np.dot(rec.g, rec.g))]
    value = getattr(rec, _RECORD_FIELDS[name])
    if value is None and name != "beta":  # an unrecorded beta is NaN
        raise IncompleteTraceError(f"record {rec.k} has no {_RECORD_FIELDS[name]}")
    if name in _SCALARS:
        return [math.nan if value is None else value]
    return value[np.newaxis]


def _rows(blocks: Iterator[tuple]) -> Iterator[tuple]:
    """One tuple per step from :meth:`IterationTrace._blocks`."""
    return itertools.chain.from_iterable(zip(*block) for block in blocks)


def initial_record(problem: QuadraticProblem, x_0, config: SolverConfig | None = None) -> IterationRecord:
    """Complete record at k=0: ``d_0 = -g_0`` with its stepsize and ``A d_0``."""
    x, g, d = (np.empty(problem.n) for _ in range(3))
    _start(problem, x_0, x, g)
    _, alpha, _, Ad, _ = _iterate(problem, config or SolverConfig(), 0, x, g, d,
                                  np.empty(problem.n))
    return IterationRecord(k=0, x=x, g=g, d=d, alpha=alpha, beta=None, Ad=Ad)


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
    n = problem.n
    # x and d are advanced in place, so the read-only record's are copied
    x = np.array(record_k.x, dtype=np.float64)
    d = np.array(record_k.d, dtype=np.float64)
    g = np.empty(n)
    _, alpha, beta_k, Ad, _ = _iterate(
        problem, config, record_k.k + 1, x, g, d, np.empty(n),
        (record_k.g, record_k.Ad, record_k.alpha, gg), tol)
    return IterationRecord(k=record_k.k + 1, x=x, g=g, d=None if alpha is None else d,
                           alpha=alpha, beta=beta_k, Ad=Ad)


def solve(problem: QuadraticProblem, x_0=None,
          config: SolverConfig | None = None) -> tuple[np.ndarray, IterationTrace]:
    """Run the iteration from ``x_0`` (default: zero vector).

    Stops when ``||g_k|| <= tol``, at ``max_iterations``, or on breakdown;
    the reason lands in ``trace.termination_reason`` (a breakdown is never
    a silent wrong answer).  The iterate and the direction are updated in
    place, and the gradient alternates between two rows.  With
    ``config.record_trace`` the trace keeps ``x_0``, ``g_0``, ``alpha_k``,
    ``beta_k`` and ``g_k . g_k``, and its records replay ``g_k``, ``x_k``
    and ``d_k`` from them when read; a run that takes no step keeps no
    records.  For dense storage the trace then keeps each step's ``A d_k``,
    the array the product returned; a product costs n^2 reads there, a
    stored row n.  For CSR storage, and for every untraced solve, each
    ``A d_k`` is dropped after its step, and the replay recomputes it with
    the same kernel.
    """
    config = config or SolverConfig()
    n = problem.n
    cap = config.max_iterations if config.max_iterations is not None else n
    x, d, tmp = np.empty(n), np.empty(n), np.empty(n)
    g_rows = itertools.cycle(np.empty((2, n)))
    ad_rows = [] if config.record_trace and problem.A.is_dense else None
    g = next(g_rows)
    _start(problem, x_0, x, g)
    start = (x.copy(), g.copy()) if config.record_trace else None
    tol = (config.grad_tolerance if config.grad_tolerance is not None
           else DEFAULT_RELATIVE_TOLERANCE * float(np.linalg.norm(g)))

    alphas: list[float] = []
    betas: list[float | None] = []
    ggs: list[float] = []
    breakdown_note: str | None = None
    prev = None
    try:
        while True:
            gg, alpha, beta_k, Ad, reason = _iterate(
                problem, config, len(alphas), x, g, d, tmp, prev, tol, cap)
            if reason is not None:
                break
            if ad_rows is not None:
                ad_rows.append(Ad)
            alphas.append(alpha)
            betas.append(beta_k)
            ggs.append(gg)
            prev = (g, Ad, alpha, gg)
            g = next(g_rows)
    except BreakdownError as err:
        reason = TerminationReason.BREAKDOWN
        breakdown_note = str(err)

    records = ()
    if config.record_trace and alphas:
        records = _TraceRecords(problem, config.gradient_update, *start, ad_rows or [],
                                alphas, betas, ggs)
    # final_g is a copy, so that keeping it does not keep the ring alive
    trace = IterationTrace(records, x, g.copy(), len(alphas), reason, tol,
                           breakdown=breakdown_note)
    return x, trace
