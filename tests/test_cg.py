import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgkit import (
    EPS_DENOMINATOR,
    BetaRule,
    BreakdownError,
    BuiltinProblemSpec,
    CgKitError,
    DimensionError,
    GradientUpdate,
    IterationRecord,
    IterationTrace,
    MatrixSPD,
    QuadraticProblem,
    SolverConfig,
    SpectrumSpec,
    StepsizeRule,
    TerminationReason,
    TraceDocument,
    beta,
    builtin_problem,
    direction,
    dot,
    gradient,
    initial_record,
    objective,
    run_all_checks,
    solve,
    solve_direct,
    step,
    stepsize_exact,
    stepsize_orthogonal,
)
import cgkit.cg as cg_module
from conftest import assert_refused, make_spd_problem

# Hand-worked trace of the 2x2 instance A=diag(2,1), b=(-2,-1), x_0=0:
#   g_0=(-2,-1)  d_0=(2,1)    Ad_0=(4,1)        alpha_0=5/9
#   x_1=(10/9,5/9)  g_1=(2/9,-4/9)  beta_1=4/81
#   d_1=(-10/81,40/81)  Ad_1=(-20/81,40/81)     alpha_1=9/10
#   x_2=(1,1)  g_2=(0,0)
G0 = np.array([-2.0, -1.0])
G1 = np.array([2 / 9, -4 / 9])
D0 = np.array([2.0, 1.0])
D1 = np.array([-10 / 81, 40 / 81])
AD0 = np.array([4.0, 1.0])
AD1 = np.array([-20 / 81, 40 / 81])


class TestGradient:
    def test_at_origin_equals_b(self, worked_problem):
        np.testing.assert_array_equal(gradient(worked_problem, [0.0, 0.0]), G0)

    def test_vanishes_at_minimizer(self, worked_problem):
        np.testing.assert_array_equal(gradient(worked_problem, [1.0, 1.0]),
                                      [0.0, 0.0])

    def test_at_first_iterate(self, worked_problem):
        np.testing.assert_allclose(gradient(worked_problem, [10 / 9, 5 / 9]),
                                   G1, rtol=1e-14, atol=1e-16)

    def test_dimension_mismatch(self, worked_problem):
        with pytest.raises(DimensionError):
            gradient(worked_problem, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x, error", [([np.nan, 1.0], CgKitError),
                                          ([1.0, 2.0, 3.0], DimensionError)])
    def test_method_validates_x(self, worked_problem, x, error):
        # the solver skips this check for its own iterates; callers do not
        with pytest.raises(error):
            worked_problem.gradient(x, out=np.empty(2))

    def test_explicit_iterations_skip_the_input_check(self, worked_problem, monkeypatch):
        checked = []
        real = cg_module.as_vector

        def counting(v, *args, **kwargs):
            checked.append(v)
            return real(v, *args, **kwargs)

        monkeypatch.setattr(cg_module, "as_vector", counting)
        x, trace = solve(worked_problem, config=SolverConfig(gradient_update="explicit"))
        assert checked == []
        assert trace.terminated_at == 2
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)


class TestBeta:
    def test_fr_on_worked_instance(self):
        assert beta("fr", G1, G0, D0) == pytest.approx(4 / 81, rel=1e-15)

    def test_hs_matches_fr_on_worked_instance(self):
        assert beta("hs", G1, G0, D0) == pytest.approx(4 / 81, rel=1e-14)

    def test_prp_matches_fr_on_worked_instance(self):
        assert beta("prp", G1, G0, D0) == pytest.approx(4 / 81, rel=1e-14)

    def test_dy_matches_fr_on_worked_instance(self):
        assert beta("dy", G1, G0, D0) == pytest.approx(4 / 81, rel=1e-14)

    def test_zero_gradient_gives_zero(self):
        zero = np.zeros(2)
        assert beta("fr", zero, G0, D0) == 0.0
        assert beta("prp", zero, G0, D0) == 0.0

    def test_zero_previous_gradient_breaks_down(self):
        zero = np.zeros(2)
        with pytest.raises(BreakdownError) as info:
            beta("fr", G1, zero, D0)
        assert info.value.rule == "FR"

    def test_hs_zero_denominator_breaks_down(self):
        g = np.array([1.0, 0.0])
        with pytest.raises(BreakdownError) as info:
            beta("hs", g, g, D0)  # y = 0
        assert info.value.rule == "HS"

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            beta("fr", G1, G0, np.ones(3))


class TestDirection:
    def test_initial_is_negated_gradient(self):
        np.testing.assert_array_equal(direction(G0), D0)

    def test_coupled_direction_on_worked_instance(self):
        np.testing.assert_allclose(direction(G1, 4 / 81, D0), D1,
                                   rtol=1e-14, atol=1e-18)

    def test_zero_gradient_keeps_scaled_previous(self):
        p = np.array([3.0, -1.0])
        np.testing.assert_array_equal(direction(np.zeros(2), 0.5, p), 0.5 * p)


class TestStepsizeExact:
    def test_first_step(self):
        assert stepsize_exact(G0, D0, AD0) == pytest.approx(5 / 9, rel=1e-15)

    def test_second_step(self):
        assert stepsize_exact(G1, D1, AD1) == pytest.approx(9 / 10, rel=1e-15)

    def test_identity_matrix_full_step(self):
        g = np.array([3.0, -2.0])
        assert stepsize_exact(g, -g, -g) == 1.0

    def test_degenerate_denominator(self):
        z = np.zeros(2)
        with pytest.raises(BreakdownError):
            stepsize_exact(G0, z, z)


class TestStepsizeOrthogonal:
    def test_first_step(self):
        assert stepsize_orthogonal(G0, AD0) == pytest.approx(5 / 9, rel=1e-15)

    def test_second_step(self):
        assert stepsize_orthogonal(G1, AD1) == pytest.approx(9 / 10, rel=1e-15)

    def test_identity_matrix_full_step(self):
        g = np.array([3.0, -2.0])
        assert stepsize_orthogonal(g, -g) == 1.0

    def test_degenerate_denominator(self):
        with pytest.raises(BreakdownError):
            stepsize_orthogonal(G0, np.zeros(2))


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


_RULES = ("exact", "orthogonal", "fr", "hs", "prp", "dy")


def _public(rule: str, u, v, w) -> float:
    """The public formula of ``rule``, on ``(g, d, Ad)`` for a stepsize
    rule and on ``(g_k, g_prev, d_prev)`` for a coupling rule."""
    if rule == "exact":
        return stepsize_exact(u, v, w)
    if rule == "orthogonal":
        return stepsize_orthogonal(u, w)
    return beta(rule, u, v, w)


def _written(rule: str, u, v, w) -> tuple[float | None, str | None]:
    """:func:`_public` written out: the value, or None and the breakdown
    text it owes."""
    if rule == "exact":
        den = float(np.dot(v, w))
        if den <= EPS_DENOMINATOR:
            return None, (f"exact-stepsize denominator d.Ad = {den:.3e} is numerically "
                          "zero or negative")
        return -float(np.dot(u, v)) / den, None
    if rule == "orthogonal":
        den = float(np.dot(u, w))
        if abs(den) <= EPS_DENOMINATOR:
            return None, ("orthogonality-stepsize denominator g.Ad = "
                          f"{den:.3e} is numerically zero")
        return -float(np.dot(u, u)) / den, None
    y = u - v
    gg, gy = float(np.dot(u, u)), float(np.dot(u, y))
    if rule in ("fr", "prp"):
        den = float(np.dot(v, v))
        if den <= EPS_DENOMINATOR:
            return None, (f"{rule.upper()} denominator ||g_prev||^2 = {den:.3e} "
                          "is numerically zero")
    else:
        den = float(np.dot(w, y))
        if abs(den) <= EPS_DENOMINATOR:
            return None, (f"{rule.upper()} denominator d_prev.(g_k - g_prev) = "
                          f"{den:.3e} is numerically zero")
    return (gg if rule in ("fr", "dy") else gy) / den, None


_VECTORS = st.integers(1, 8).flatmap(lambda n: st.tuples(*[arrays(
    np.float64, n, elements=st.floats(-1e3, 1e3, allow_subnormal=False))] * 3))


class TestOneFormulaPerRule:
    """The public formulas and the solver give the written-out stepsizes and
    couplings bit for bit, and word each breakdown alike."""

    @settings(max_examples=300, deadline=None)
    @given(_VECTORS)
    def test_each_rule_equals_its_written_formula(self, vectors):
        for rule in _RULES:
            value, message = _written(rule, *vectors)
            if message is None:
                assert _bits(_public(rule, *vectors)) == _bits(value)
            else:
                assert_refused(lambda: _public(rule, *vectors), BreakdownError, message)

    @pytest.mark.parametrize("rule, vectors", [
        ("exact", (G0, np.zeros(2), np.zeros(2))), ("orthogonal", (G0, D0, np.zeros(2))),
        ("fr", (G1, np.zeros(2), D0)), ("hs", (G1, G1, D0)),
        ("prp", (G1, np.zeros(2), D0)), ("dy", (G1, G1, D0)),
    ], ids=_RULES)
    def test_zero_denominators_are_worded_as_written(self, rule, vectors):
        value, message = _written(rule, *vectors)
        assert value is None
        assert_refused(lambda: _public(rule, *vectors), BreakdownError, message)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 12),
           stepsize=st.sampled_from(["exact", "orthogonal"]),
           rule=st.sampled_from(["fr", "hs", "prp", "dy"]),
           update=st.sampled_from(["recurrence", "explicit"]))
    def test_a_traced_solve_steps_by_the_written_formulas(self, seed, n, stepsize, rule,
                                                          update):
        problem = make_spd_problem(np.geomspace(1.0, 1e3, n), seed)
        _, trace = solve(problem, config=SolverConfig(
            stepsize_rule=stepsize, beta_rule=rule, gradient_update=update))
        prev = None
        for g, d, Ad, alpha, beta_k in trace.steps("G", "D", "AD", "alpha", "beta"):
            assert _bits(alpha) == _bits(_written(stepsize, g, d, Ad)[0])
            if prev is not None:
                assert _bits(beta_k) == _bits(_written(rule, g, *prev)[0])
            prev = g, d

    @pytest.mark.parametrize("stepsize", ["exact", "orthogonal"])
    def test_a_solve_breaks_down_in_the_written_words(self, stepsize):
        # the 1 x 1 matrix [1e-305]: both denominators of step 0 are below
        # EPS_DENOMINATOR
        problem = QuadraticProblem(MatrixSPD.from_dense([[1e-305]]), [1.0])
        _, trace = solve(problem, config=SolverConfig(stepsize_rule=stepsize))
        g = np.array([1.0])
        value, message = _written(stepsize, g, -g, -1e-305 * g)
        assert value is None
        assert trace.termination_reason is TerminationReason.BREAKDOWN
        assert trace.breakdown == f"{message} (iteration 0)"


class TestStep:
    def test_first_step_reproduces_worked_instance(self, worked_problem):
        rec0 = initial_record(worked_problem, [0.0, 0.0])
        assert rec0.alpha == pytest.approx(5 / 9, rel=1e-15)
        rec1 = step(worked_problem, rec0)
        np.testing.assert_allclose(rec1.x, [10 / 9, 5 / 9], rtol=1e-15)
        np.testing.assert_allclose(rec1.g, G1, rtol=1e-14, atol=1e-16)
        assert rec1.beta == pytest.approx(4 / 81, rel=1e-14)
        assert rec1.alpha == pytest.approx(9 / 10, rel=1e-14)

    def test_second_step_reaches_minimizer(self, worked_problem):
        rec0 = initial_record(worked_problem, [0.0, 0.0])
        rec1 = step(worked_problem, rec0)
        rec2 = step(worked_problem, rec1, tol=1e-12 * np.linalg.norm(G0))
        assert rec2.k == 2
        assert rec2.is_terminal
        np.testing.assert_allclose(rec2.x, [1.0, 1.0], rtol=1e-15)
        assert np.abs(rec2.g).max() <= 1e-15 * np.linalg.norm(G0)

    def test_zero_gradient_input_rejected(self, worked_problem):
        rec = IterationRecord(k=0, x=np.array([1.0, 1.0]), g=np.zeros(2),
                              d=np.array([1.0, 0.0]), alpha=1.0, beta=None,
                              Ad=np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            step(worked_problem, rec)

    def test_terminal_record_rejected(self, worked_problem):
        rec = IterationRecord(k=2, x=np.ones(2), g=np.zeros(2), d=None,
                              alpha=None, beta=None, Ad=None)
        with pytest.raises(ValueError):
            step(worked_problem, rec)

    def test_explicit_gradient_mode_matches(self, worked_problem):
        config = SolverConfig(gradient_update="explicit")
        rec0 = initial_record(worked_problem, [0.0, 0.0], config)
        rec1 = step(worked_problem, rec0, config)
        np.testing.assert_allclose(rec1.g, G1, rtol=1e-14, atol=1e-16)


class TestSolve:
    def test_identity_single_iteration(self):
        problem = QuadraticProblem(MatrixSPD.from_dense(np.eye(2)),
                                   [-1.0, -1.0])
        x, trace = solve(problem)
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)
        assert trace.terminated_at == 1
        assert trace.termination_reason == TerminationReason.GRADIENT_BELOW_TOLERANCE

    @pytest.mark.parametrize("rule", ["exact", "orthogonal"])
    def test_worked_instance_two_iterations(self, worked_problem, rule):
        x, trace = solve(worked_problem, config=SolverConfig(stepsize_rule=rule))
        assert trace.terminated_at == 2
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)
        assert trace.records[0].alpha == pytest.approx(5 / 9, rel=1e-15)
        assert trace.records[1].beta == pytest.approx(4 / 81, rel=1e-15)
        assert trace.records[1].alpha == pytest.approx(9 / 10, rel=1e-15)

    def test_two_distinct_eigenvalues_two_iterations(self):
        problem = QuadraticProblem(
            MatrixSPD.from_dense(np.diag([3.0, 3.0, 3.0, 5.0, 5.0])),
            np.random.default_rng(0).standard_normal(5))
        x, trace = solve(problem)
        assert trace.terminated_at <= 2
        oracle = solve_direct(problem.A, -problem.b)
        np.testing.assert_allclose(x, oracle, rtol=1e-12)

    def test_starting_at_minimizer_takes_no_steps(self, worked_problem):
        x, trace = solve(worked_problem, x_0=[1.0, 1.0])
        assert trace.terminated_at == 0
        assert trace.records == ()
        assert trace.termination_reason == TerminationReason.GRADIENT_BELOW_TOLERANCE

    def test_iteration_cap_reported(self):
        problem = make_spd_problem(np.linspace(1.0, 100.0, 30), seed=0)
        x, trace = solve(problem, config=SolverConfig(max_iterations=2))
        assert trace.terminated_at == 2
        assert trace.termination_reason == TerminationReason.ITERATION_CAP

    def test_breakdown_surfaces_in_reason(self):
        # quadratic-form values underflow the breakdown threshold
        problem = QuadraticProblem(MatrixSPD.from_dense([[1e-305]]), [1.0])
        x, trace = solve(problem)
        assert trace.termination_reason == TerminationReason.BREAKDOWN
        assert trace.breakdown is not None
        assert "iteration 0" in trace.breakdown

    def test_record_trace_off_keeps_summary(self, worked_problem):
        x, trace = solve(worked_problem, config=SolverConfig(record_trace=False))
        assert trace.records == ()
        assert trace.terminated_at == 2
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)

    def test_trace_arrays_are_readonly(self, worked_problem):
        x, trace = solve(worked_problem)
        x_untraced, untraced = solve(worked_problem,
                                     config=SolverConfig(record_trace=False))
        rec0 = initial_record(worked_problem, [0.0, 0.0])
        arrays = [x, trace.final_x, trace.final_g,
                  x_untraced, untraced.final_x, untraced.final_g]
        for rec in (*trace.records, rec0, step(worked_problem, rec0)):
            arrays += [rec.x, rec.g, rec.d, rec.Ad]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 7.0

    def test_explicit_tolerance_honored(self, worked_problem):
        _, trace = solve(worked_problem, config=SolverConfig(grad_tolerance=10.0))
        assert trace.terminated_at == 0

    def test_all_beta_rules_agree_on_quadratic(self):
        problem = make_spd_problem(np.linspace(1.0, 10.0, 20), seed=4)
        finals = {}
        for rule in BetaRule:
            x, trace = solve(problem, config=SolverConfig(beta_rule=rule))
            assert (trace.termination_reason
                    == TerminationReason.GRADIENT_BELOW_TOLERANCE)
            finals[rule] = x
        baseline = finals[BetaRule.FR]
        for x in finals.values():
            np.testing.assert_allclose(x, baseline, rtol=1e-10, atol=1e-12)


RULES = list(itertools.product(StepsizeRule, BetaRule, GradientUpdate))
RULE_IDS = ["-".join(rule.value for rule in rules) for rules in RULES]


def _config(rules, **kwargs) -> SolverConfig:
    stepsize_rule, beta_rule, gradient_update = rules
    return SolverConfig(stepsize_rule=stepsize_rule, beta_rule=beta_rule,
                        gradient_update=gradient_update, **kwargs)


def _peak(fn):
    """Result of ``fn()`` and the bytes it allocated at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _in_storage(problem: QuadraticProblem, storage: str) -> QuadraticProblem:
    if storage == "dense":
        return problem
    m = sparse.csr_matrix(problem.A.to_dense())
    return QuadraticProblem(MatrixSPD.from_csr(m.indptr, m.indices, m.data, problem.n),
                            problem.b)


class TestSingleCore:
    """solve, initial_record and step run one iteration core, so their
    results agree to the bit however the vectors are stored."""

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("rules", RULES, ids=RULE_IDS)
    def test_traced_and_untraced_bit_identical(self, rules, storage):
        problem = _in_storage(make_spd_problem(np.linspace(1.0, 50.0, 41), seed=6),
                              storage)
        for cap in (None, 7):
            xt, traced = solve(problem, config=_config(rules, max_iterations=cap))
            xu, untraced = solve(problem, config=_config(rules, max_iterations=cap,
                                                         record_trace=False))
            assert untraced.records == ()
            assert len(traced.records) == traced.terminated_at == untraced.terminated_at
            assert traced.termination_reason == untraced.termination_reason
            np.testing.assert_array_equal(xt, xu)
            assert xt.base is None  # the answer holds no block of the trace
            np.testing.assert_array_equal(traced.final_x, untraced.final_x)
            np.testing.assert_array_equal(traced.final_g, untraced.final_g)

    @staticmethod
    def _check_records_equal_the_step_chain(rules, storage, start):
        # the records replay g_k, x_k and d_k from x_0, g_0 and the
        # recorded A d_k, alpha_k and beta_k; the step chain computes them
        # afresh
        problem = _in_storage(make_spd_problem(np.linspace(1.0, 10.0, 30), seed=9),
                              storage)
        x_0 = (np.zeros(problem.n) if start == "zero"
               else np.random.default_rng(5).standard_normal(problem.n))
        config = _config(rules)
        _, trace = solve(problem, x_0, config)
        assert trace.termination_reason == TerminationReason.GRADIENT_BELOW_TOLERANCE
        rec = initial_record(problem, x_0, config)
        for expected in trace.records:
            assert (rec.k, rec.alpha, rec.beta) == (expected.k, expected.alpha, expected.beta)
            for name in ("x", "g", "d", "Ad"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(expected, name))
            rec = step(problem, rec, config, tol=trace.grad_tolerance)
        assert rec.is_terminal
        np.testing.assert_array_equal(rec.x, trace.final_x)
        np.testing.assert_array_equal(rec.g, trace.final_g)

    @pytest.mark.parametrize("rules", RULES, ids=RULE_IDS)
    def test_records_equal_the_step_chain(self, rules):
        self._check_records_equal_the_step_chain(rules, "dense", "zero")

    @pytest.mark.parametrize("storage,start", [("dense", "random"), ("csr", "zero"),
                                               ("csr", "random")],
                             ids=["dense-random", "csr-zero", "csr-random"])
    @pytest.mark.parametrize("rules", RULES, ids=RULE_IDS)
    def test_replayed_records_equal_the_step_chain(self, rules, storage, start):
        # the dense, zero-start case is test_records_equal_the_step_chain
        self._check_records_equal_the_step_chain(rules, storage, start)

    def test_trace_storage_follows_the_steps_not_the_cap(self):
        # 4 distinct eigenvalues: CG stops after 4 steps, far below the
        # default cap n
        n = 200_000
        eigs = np.array([1.0, 2.0, 5.0, 10.0])[np.arange(n) % 4]
        diag = sparse.diags(eigs, format="csr")
        problem = QuadraticProblem(
            MatrixSPD.from_csr(diag.indptr, diag.indices, diag.data, n),
            np.random.default_rng(0).standard_normal(n))
        (_, trace), peak = _peak(lambda: solve(problem))
        assert trace.terminated_at == 4
        assert trace.termination_reason == TerminationReason.GRADIENT_BELOW_TOLERANCE
        # x_0, g_0 and a few work vectors (16 in all): a CSR trace stores
        # no A d row, where storage sized by the cap would take n vectors
        assert peak < 18 * n * 8


class TestTraceMemory:
    """A traced CSR solve stores no vector per step, a dense one A d_k;
    g_k, x_k, d_k and the CSR products are replayed only for callers that
    read them."""

    n, cap = 50_000, 100

    @pytest.fixture(scope="class")
    def laplacian(self):
        return builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=self.n))

    def test_traced_csr_solve_stores_no_vector_per_step(self, laplacian):
        (_, trace), peak = _peak(
            lambda: solve(laplacian, config=SolverConfig(max_iterations=self.cap)))
        assert trace.terminated_at == self.cap
        # the work vectors, x_0 and g_0; storing A d_k took K more
        assert peak < 16 * 8 * self.n

    def test_stored_bytes_counts_the_held_vectors(self, laplacian):
        _, trace = solve(laplacian, config=SolverConfig(max_iterations=self.cap))
        # x_0 and g_0: a CSR trace recomputes A d_k
        assert trace.stored_bytes == 2 * 8 * self.n
        by_hand = replace(trace, records=tuple(trace.records))
        # a hand-built trace holds x, g, d and A d for every record
        assert by_hand.stored_bytes == 4 * self.cap * 8 * self.n
        _, untraced = solve(laplacian, config=SolverConfig(max_iterations=self.cap,
                                                           record_trace=False))
        assert untraced.stored_bytes == 0

    def test_stored_bytes_of_a_dense_trace_count_its_products(self):
        problem = make_spd_problem(np.linspace(1.0, 1e4, 200), seed=5)
        K = 50
        _, trace = solve(problem, config=SolverConfig(max_iterations=K))
        assert trace.terminated_at == K
        # the A d_k rows, x_0 and g_0
        assert trace.stored_bytes == (K + 2) * 8 * problem.n

    def test_document_replays_one_step_at_a_time(self, laplacian):
        config = SolverConfig(max_iterations=self.cap)
        _, trace = solve(laplacian, config=config)
        doc, peak = _peak(lambda: TraceDocument.from_solve(laplacian, config, trace,
                                                           timestamp=False))
        assert len(doc.iterations) == self.cap
        # stacking the replayed X and G took 2 K vectors (201 in all)
        assert peak <= 16 * 8 * self.n

    def test_counting_records_replays_nothing(self, laplacian):
        _, trace = solve(laplacian, config=SolverConfig(max_iterations=self.cap))
        len(trace.records)  # warm up the call path
        length, peak = _peak(lambda: len(trace.records))
        assert length == self.cap
        assert peak < 1024  # a replay would take 3 K vectors of 400 kB
        equal, peak = _peak(lambda: trace.records == ())
        assert not equal and peak < 1024
        # records equal themselves by identity; comparing their copies
        # would replay every step
        equal, peak = _peak(lambda: trace.records == trace.records)
        assert equal and peak < 1024

    def test_reading_records_holds_one_block(self, laplacian):
        _, trace = solve(laplacian, config=SolverConfig(max_iterations=self.cap))
        rec, peak = _peak(lambda: trace.records[-1])
        assert rec.k == self.cap - 1
        # one replay block (a row per vector at this n), the work vectors
        # and the record's copies; keeping every record took 4 K vectors
        assert peak < 16 * 8 * self.n

        def read_all():
            for rec in trace.records:
                pass
        _, peak = _peak(read_all)
        assert peak < 16 * 8 * self.n

    def test_verification_adds_no_more_than_stacking_did(self, laplacian):
        _, trace = solve(laplacian, config=SolverConfig(max_iterations=self.cap))
        _, peak = _peak(lambda: run_all_checks(trace, laplacian))
        # stacking G, D and AD from (x, g, d, Ad) records peaked at 501
        # vectors; the trace now stacks AD and replays G and D
        assert peak <= 501 * 8 * self.n

    def test_steps_hand_out_the_columns_rows_read_only(self, laplacian):
        _, trace = solve(laplacian, config=SolverConfig(max_iterations=20))
        X, G, beta = trace.columns("X", "G", "beta")
        assert np.isnan(beta[0])
        for k, (g, x, b) in enumerate(trace.steps("G", "X", "beta")):
            np.testing.assert_array_equal(g, G[k])
            np.testing.assert_array_equal(x, X[k])
            assert b == beta[k] or k == 0
            for vector in (g, x):
                with pytest.raises(ValueError):
                    vector[0] = 7.0

    @pytest.mark.parametrize("update", list(GradientUpdate), ids=lambda u: u.value)
    def test_replayed_vectors_are_the_solved_ones(self, laplacian, update):
        # the iterate and gradient after the last record are the answer's,
        # to the bit
        config = SolverConfig(max_iterations=self.cap, gradient_update=update)
        x, trace = solve(laplacian, config=config)
        X, G, D, AD, alpha = trace.columns("X", "G", "D", "AD", "alpha")
        last = X[-1] + np.multiply(D[-1], alpha[-1])
        np.testing.assert_array_equal(last, x)
        last_g = (G[-1] + np.multiply(AD[-1], alpha[-1])
                  if update == GradientUpdate.RECURRENCE else laplacian.gradient(last))
        np.testing.assert_array_equal(last_g, trace.final_g)
        np.testing.assert_array_equal(X, [rec.x for rec in trace.records])
        np.testing.assert_array_equal(G, [rec.g for rec in trace.records])
        np.testing.assert_array_equal(D, [rec.d for rec in trace.records])
        # a column asked for alone is the one replayed with the others
        np.testing.assert_array_equal(trace.columns("G")[0], G)


def test_explicit_replay_equals_the_step_chain_under_threaded_blas():
    # at this order the dense matvec runs on several BLAS threads: the
    # replayed gradients A x_k + b must still equal the step chain's
    problem = builtin_problem(BuiltinProblemSpec(
        family="random_spd", n=1537, seed=1, b_mode="random", b_seed=1,
        spectrum=SpectrumSpec(lam_min=1.0, lam_max=100.0)))
    config = SolverConfig(gradient_update="explicit", max_iterations=60)
    _, trace = solve(problem, config=config)
    X, G, D = trace.columns("X", "G", "D")
    rec = initial_record(problem, None, config)
    for k in range(trace.terminated_at):
        np.testing.assert_array_equal(rec.x, X[k])
        np.testing.assert_array_equal(rec.g, G[k])
        np.testing.assert_array_equal(rec.d, D[k])
        rec = step(problem, rec, config)
    np.testing.assert_array_equal(rec.g, trace.final_g)


class TestSolveProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_positivity_and_descent_identity(self, seed):
        problem = make_spd_problem(np.linspace(1.0, 50.0, 25), seed=seed)
        _, trace = solve(problem)
        for rec in trace.records:
            assert rec.alpha > 0.0
            gsq = rec.grad_norm() ** 2
            assert abs(np.dot(rec.g, rec.d) + gsq) <= 1e-12 * gsq

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_objective(self, seed):
        problem = make_spd_problem(np.linspace(1.0, 80.0, 30), seed=seed)
        _, trace = solve(problem)
        values = [objective(problem, rec.x) for rec in trace.records]
        values.append(objective(problem, trace.final_x))
        assert all(b <= a + 1e-12 * max(1.0, abs(a))
                   for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n,kappa", [(50, 10.0), (200, 100.0)])
    def test_recurrence_tracks_true_gradient(self, n, kappa):
        problem = make_spd_problem(np.linspace(1.0, kappa, n), seed=8)
        _, trace = solve(problem, config=SolverConfig(max_iterations=2 * n))
        g0 = trace.records[0].grad_norm()
        for rec in trace.records:
            drift = np.linalg.norm(rec.g - problem.gradient(rec.x))
            assert drift <= 1e-8 * g0
        drift = np.linalg.norm(trace.final_g - problem.gradient(trace.final_x))
        assert drift <= 1e-8 * g0

    def test_stepsize_rules_give_same_trajectory(self):
        problem = make_spd_problem(np.linspace(1.0, 10.0, 20), seed=2)
        _, tr_exact = solve(problem, config=SolverConfig(stepsize_rule="exact"))
        _, tr_orth = solve(problem,
                           config=SolverConfig(stepsize_rule="orthogonal"))
        assert tr_exact.terminated_at == tr_orth.terminated_at
        np.testing.assert_allclose(tr_orth.final_x, tr_exact.final_x,
                                   rtol=1e-10, atol=1e-12)


class TestQuadraticProblem:
    def test_rejects_indefinite_matrix(self):
        from cgkit import NotPositiveDefiniteError
        with pytest.raises(NotPositiveDefiniteError):
            QuadraticProblem(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])

    def test_rejects_mismatched_b(self):
        with pytest.raises(DimensionError):
            QuadraticProblem(MatrixSPD.from_dense(np.eye(2)), [1.0, 2.0, 3.0])

    def test_objective_at_minimizer(self, worked_problem):
        # f(x*) = -1/2 x*.T A x* = -(2 + 1)/2
        assert objective(worked_problem, [1.0, 1.0]) == pytest.approx(-1.5)

    def test_direct_solution_oracle(self, worked_problem):
        np.testing.assert_allclose(worked_problem.direct_solution(),
                                   [1.0, 1.0], rtol=1e-14)

    def test_keeps_a_copy_of_b(self):
        b = np.array([-2.0, -1.0])
        problem = QuadraticProblem(MatrixSPD.from_dense(np.diag([2.0, 1.0])), b)
        assert b.flags.writeable and not problem.b.flags.writeable
        b[0] = 7.0
        assert problem.b.tolist() == [-2.0, -1.0]

    @staticmethod
    def _problem(storage):
        if storage == "dense":
            return builtin_problem(BuiltinProblemSpec(
                family="random_spd", n=60, spectrum=SpectrumSpec(lam_min=1.0, lam_max=100.0),
                seed=5, b_mode="random", b_seed=6))
        return builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=400))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_one_factorization_per_problem(self, storage, monkeypatch):
        import cgkit.linalg as linalg

        calls = []

        def counted(m):
            calls.append(m.storage)
            return cholesky(m)

        cholesky = linalg._cholesky
        monkeypatch.setattr(linalg, "_cholesky", counted)
        problem = self._problem(storage)
        _, trace = solve(problem)
        finite = run_all_checks(trace, problem).check("finite_termination")
        assert np.isfinite(finite.worst)
        assert calls == [storage]

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_direct_solution_is_the_kept_oracle(self, storage):
        problem = self._problem(storage)
        x = problem.direct_solution()
        assert x.dtype == np.float64 and x.shape == (problem.n,)
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert problem.direct_solution() is x
        assert x.tobytes() == solve_direct(problem.A, -problem.b).tobytes()


class TestSolverConfig:
    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tolerance=-1.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    def test_string_values_coerce_to_enums(self):
        config = SolverConfig(stepsize_rule="orthogonal", beta_rule="dy",
                              gradient_update="explicit")
        assert config.stepsize_rule is StepsizeRule.GRADIENT_ORTHOGONALITY
        assert config.beta_rule is BetaRule.DY
        assert config.gradient_update is GradientUpdate.EXPLICIT


class TestBlockReplay:
    """The trace replays x_k, g_k and d_k in row blocks; steps, columns and
    records all equal the step chain, which computes every step afresh."""

    # at n = 300 a replay block holds 64 rows, so blocks end after 64, 128,
    # 192, 256, ... steps; the step counts below end inside, on and just
    # past those edges
    step_counts = pytest.mark.parametrize("K", [1, 8, 9, 56, 64, 65, 121, 128, 260],
                                          ids=lambda K: f"K{K}")

    @pytest.fixture(scope="class")
    def problem(self):
        return builtin_problem(BuiltinProblemSpec(
            family="random_spd", n=300, seed=4, b_mode="random", b_seed=4,
            spectrum=SpectrumSpec(lam_min=1.0, lam_max=1e4)))

    @staticmethod
    def _chain(problem, config, K):
        rec = initial_record(problem, None, config)
        records = [rec]
        while len(records) < K:
            rec = step(problem, rec, config)
            records.append(rec)
        return records

    @staticmethod
    def _check(problem, config, K):
        _, trace = solve(problem, config=replace(config, max_iterations=K))
        assert trace.terminated_at == K
        assert trace.termination_reason == TerminationReason.ITERATION_CAP
        chain = TestBlockReplay._chain(problem, config, K)
        names = ("X", "G", "D", "AD", "alpha", "beta")
        # one column of K values per name, each compared whole
        expected = [np.array(column) for column in zip(*(
            (rec.x, rec.g, rec.d, rec.Ad, rec.alpha, np.nan if rec.beta is None else rec.beta)
            for rec in chain))]
        steps = list(trace.steps(*names))
        assert len(steps) == K
        for got, want in zip(zip(*steps), expected):
            np.testing.assert_array_equal(got, want)
        for column, want in zip(trace.columns(*names), expected):
            np.testing.assert_array_equal(column, want)
        indices = (0, K - 1, -1)
        for records, wants in ((list(trace.records), chain),
                               ([trace.records[k] for k in indices],
                                [chain[k] for k in indices])):
            assert ([(rec.k, rec.alpha, rec.beta) for rec in records]
                    == [(want.k, want.alpha, want.beta) for want in wants])
            for name in ("x", "g", "d", "Ad"):
                np.testing.assert_array_equal([getattr(rec, name) for rec in records],
                                              [getattr(want, name) for want in wants])
        with pytest.raises(IndexError):
            trace.records[K]
        # each name asked for alone replays the same rows
        for name, want in zip(names[:3], expected):
            np.testing.assert_array_equal(trace.columns(name)[0], want)

    @step_counts
    @pytest.mark.parametrize("beta_rule", list(BetaRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("update", list(GradientUpdate), ids=lambda u: u.value)
    def test_steps_columns_and_records_equal_the_step_chain(self, problem, update,
                                                             beta_rule, K):
        self._check(problem, SolverConfig(beta_rule=beta_rule, gradient_update=update), K)

    # the same blocks over a CSR trace, which stores no A d rows and
    # recomputes each product
    @step_counts
    @pytest.mark.parametrize("beta_rule", list(BetaRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("update", list(GradientUpdate), ids=lambda u: u.value)
    def test_csr_replay_equals_the_step_chain(self, problem, update, beta_rule, K):
        self._check(_in_storage(problem, "csr"),
                    SolverConfig(beta_rule=beta_rule, gradient_update=update), K)

    @pytest.mark.parametrize("update", list(GradientUpdate), ids=lambda u: u.value)
    def test_one_row_blocks_equal_the_step_chain(self, update):
        # from n = 32768 on a block holds one row of each vector
        problem = builtin_problem(BuiltinProblemSpec(
            family="laplacian1d", n=40_000, b_mode="random", b_seed=2))
        self._check(problem, SolverConfig(gradient_update=update), 11)

    def test_steps_hand_out_read_only_rows_of_a_block(self, problem):
        _, trace = solve(problem, config=SolverConfig(max_iterations=200))
        rows = [row for row, in trace.steps("G")]
        assert all(not row.flags.writeable for row in rows)
        # a block holds at most 256 kB of a vector: 64 rows at n = 300
        assert rows[0].base is rows[63].base
        assert rows[63].base is not rows[64].base
        assert rows[0].base.shape == (64, problem.n)
        # the last block holds what is left of the 200 steps
        assert rows[192].base is rows[199].base
        assert rows[199].base.shape == (8, problem.n)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_record_slices_equal_the_records(self, problem, storage):
        # 70 steps cross the block edge after 64
        _, trace = solve(_in_storage(problem, storage),
                         config=SolverConfig(max_iterations=70))
        records = tuple(trace.records)
        for index in (slice(1, 4), slice(None, None, -1), slice(-2, None)):
            got, want = trace.records[index], records[index]
            assert isinstance(got, tuple)
            assert ([(rec.k, rec.alpha, rec.beta) for rec in got]
                    == [(rec.k, rec.alpha, rec.beta) for rec in want])
            for rec, expected in zip(got, want):
                for name in ("x", "g", "d", "Ad"):
                    np.testing.assert_array_equal(getattr(rec, name),
                                                  getattr(expected, name))

    @pytest.mark.parametrize("update", list(GradientUpdate), ids=lambda u: u.value)
    def test_document_rows_equal_the_records(self, problem, update):
        # grad_norm comes from the solver's g.g; it is np.linalg.norm(g_k)
        config = SolverConfig(gradient_update=update, max_iterations=70)
        _, trace = solve(problem, config=config)
        doc = TraceDocument.from_solve(problem, config, trace, include_vectors=True,
                                       timestamp=False)
        for row, vectors, rec in zip(doc.iterations, doc.vectors, trace.records):
            assert row["grad_norm"] == float(np.linalg.norm(rec.g))
            assert row["objective"] == 0.5 * float(np.dot(rec.x, rec.g + problem.b))
            assert (row["alpha"], row["beta"]) == (rec.alpha, rec.beta)
            assert vectors == {"k": rec.k, "x": rec.x.tolist(), "g": rec.g.tolist(),
                               "d": rec.d.tolist()}
        by_hand = replace(trace, records=tuple(trace.records))
        assert TraceDocument.from_solve(problem, config, by_hand, include_vectors=True,
                                        timestamp=False) == doc


class TestOneReader:
    """steps, columns and records read one block reader; a traced solve and
    a trace built by hand from its records read the same."""

    @pytest.fixture(params=["traced", "by-hand"])
    def trace(self, request):
        problem = make_spd_problem(np.linspace(1.0, 40.0, 20), seed=3)
        _, trace = solve(problem, config=SolverConfig(max_iterations=12))
        if request.param == "by-hand":
            trace = replace(trace, records=tuple(trace.records))
        return trace

    def test_no_names(self, trace):
        assert list(trace.steps()) == [()] * 12
        assert trace.columns() == ()

    def test_a_repeated_name_gets_arrays_of_its_own(self, trace):
        G, alpha, G_again, D, alpha_again = trace.columns("G", "alpha", "G", "D", "alpha")
        np.testing.assert_array_equal(G, [rec.g for rec in trace.records])
        np.testing.assert_array_equal(D, [rec.d for rec in trace.records])
        np.testing.assert_array_equal(G_again, G)
        np.testing.assert_array_equal(alpha, [rec.alpha for rec in trace.records])
        np.testing.assert_array_equal(alpha_again, alpha)
        assert not np.shares_memory(G, G_again)
        assert not np.shares_memory(alpha, alpha_again)
        for column in (G, G_again):
            column[0, 0] = 7.0  # fresh, writable arrays
        for (g, g_again, beta, beta_again), rec in zip(
                trace.steps("G", "G", "beta", "beta"), trace.records):
            np.testing.assert_array_equal(g, rec.g)
            np.testing.assert_array_equal(g_again, rec.g)
            assert beta == beta_again or (rec.k == 0 and np.isnan(beta) and np.isnan(beta_again))


def _trace_numbered(*ks):
    records = tuple(IterationRecord(k=k, x=np.zeros(2), g=np.ones(2), d=-np.ones(2),
                                    alpha=1.0, beta=None if k == 0 else 0.5, Ad=np.ones(2))
                    for k in ks)
    return IterationTrace(records, np.zeros(2), np.zeros(2), len(ks),
                          TerminationReason.ITERATION_CAP, 0.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: direction([1.0, 2.0], d_prev=[1.0, 1.0]), ValueError,
     "beta_k is required when d_prev is given"),
    (lambda: direction([1.0, 2.0], 0.5, [1.0, 1.0, 1.0]), DimensionError,
     "direction operands must be 1-D and share one length"),
    (lambda: _trace_numbered(0, 2), ValueError,
     "records[1] has k=2; indices must be contiguous"),
    (lambda: beta("fr", G1, G0, np.ones(3)), DimensionError,
     "beta operands must be 1-D and share one length"),
    (lambda: stepsize_exact(G0, np.eye(2), AD0), DimensionError,
     "stepsize operands must be 1-D and share one length"),
    (lambda: stepsize_orthogonal(G0, AD1[:1]), DimensionError,
     "stepsize operands must be 1-D and share one length"),
], ids=["direction-without-beta", "direction-lengths", "trace-numbered-0-2",
        "beta-lengths", "stepsize-matrix", "stepsize-lengths"])
def test_typed_refusals(call, error, message):
    assert_refused(call, error, message)


@pytest.mark.parametrize("what, call", [
    ("dot", lambda u, v: dot(u, v)),
    ("direction", lambda u, v: direction(u, 0.5, v)),
    ("beta", lambda u, v: beta("hs", u, u, v)),
    ("stepsize", lambda u, v: stepsize_exact(u, u, v)),
    ("stepsize", lambda u, v: stepsize_orthogonal(u, v)),
], ids=["dot", "direction", "beta", "stepsize-exact", "stepsize-orthogonal"])
@pytest.mark.parametrize("u, v", [
    (np.eye(2), np.eye(2)),
    (np.ones(2), np.eye(2)),
    (np.ones(2), np.ones(3)),
], ids=["2d", "2d-second", "lengths"])
def test_one_operand_check(what, call, u, v):
    # every public formula refuses its vector operands with one text
    assert_refused(lambda: call(u, v), DimensionError,
                   f"{what} operands must be 1-D and share one length")


def test_direction_takes_beta_and_d_prev_together():
    assert_refused(lambda: direction(G1, 4 / 81), ValueError,
                   "d_prev is required when beta_k is given")
    assert_refused(lambda: direction(np.eye(2)), DimensionError,
                   "direction operands must be 1-D and share one length")
