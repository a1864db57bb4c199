import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgkit import (
    IncompleteTraceError,
    IterationTrace,
    MatrixSPD,
    ProblemSpecError,
    QuadraticProblem,
    SolverConfig,
    SpectrumSpec,
    SymmetryError,
    TerminationReason,
    check_beta_agreement,
    check_classical_identities,
    check_finite_termination,
    check_gradient_conjugacy,
    check_stepsize_equivalence,
    estimate_condition,
    generate_spd,
    run_all_checks,
    solve,
)
from cgkit import verify
from cgkit.cli import main
from cgkit.problems_io import BuiltinProblemSpec, builtin_problem
from cgkit.verify import CONDITION_RELAX_THRESHOLD, _ritz_extremes
from conftest import assert_refused, make_spd_problem

EPS = np.finfo(np.float64).eps


@pytest.fixture
def worked_trace(worked_problem):
    _, trace = solve(worked_problem)
    return trace


def three_cluster_problem(n, kappa, seed):
    """Spectrum with three distinct values spread over [1, kappa]."""
    vals = np.exp(np.linspace(0.0, np.log(kappa), 3))
    return make_spd_problem(vals[np.arange(n) % 3], seed=seed)


class TestClassicalIdentities:
    def test_worked_instance_residuals_vanish(self, worked_problem, worked_trace):
        report = check_classical_identities(worked_trace, worked_problem.A)
        assert report.passed
        conj = report.check("direction_conjugacy")
        # d_1 . A d_0 = -40/81 + 40/81 = 0
        assert abs(conj.residuals[0].normalized) <= 1e-14
        orth = report.check("gradient_orthogonality")
        # g_1 . g_0 = -4/9 + 4/9 = 0
        assert abs(orth.residuals[0].normalized) <= 1e-14

    def test_single_iteration_trace(self):
        problem = QuadraticProblem(MatrixSPD.from_dense([[2.0]]), [1.0])
        _, trace = solve(problem)
        assert trace.terminated_at == 1
        report = check_classical_identities(trace, problem.A)
        assert report.passed
        descent = report.check("descent")
        assert len(descent.residuals) == 1
        assert descent.residuals[0].normalized == 0.0  # d_0 = -g_0 exactly
        assert report.check("direction_conjugacy").residuals == ()

    def test_well_conditioned_families_pass(self):
        problem = three_cluster_problem(30, 50.0, seed=3)
        _, trace = solve(problem)
        report = check_classical_identities(trace, problem.A)
        assert report.passed
        assert report.worst_violation <= 1e-8

    def test_empty_trace_rejected(self, worked_problem):
        _, trace = solve(worked_problem, config=SolverConfig(record_trace=False))
        with pytest.raises(IncompleteTraceError):
            check_classical_identities(trace, worked_problem.A)


class TestGradientConjugacy:
    def test_worked_instance_adjacent_identity(self, worked_problem, worked_trace):
        report = check_gradient_conjugacy(worked_trace, worked_problem.A)
        assert report.passed
        adjacent = report.check("gradient_conjugacy_adjacent")
        # g_1.A g_0 = -4/9 and -||g_1||^2/alpha_0 = -4/9 cancel exactly
        assert abs(adjacent.residuals[0].normalized) <= 1e-14

    def test_far_pairs_on_seeded_problem(self):
        problem = three_cluster_problem(30, 50.0, seed=3)
        _, trace = solve(problem)
        report = check_gradient_conjugacy(trace, problem.A)
        far = report.check("gradient_conjugacy_far")
        assert far.passed
        assert far.worst <= 1e-8

    def test_single_iteration_is_vacuous(self):
        problem = QuadraticProblem(MatrixSPD.from_dense([[2.0]]), [1.0])
        _, trace = solve(problem)
        report = check_gradient_conjugacy(trace, problem.A)
        assert report.passed
        assert report.check("gradient_conjugacy_adjacent").residuals == ()
        assert "no gradient pairs" in report.check("gradient_conjugacy_adjacent").note

    def test_empty_trace_rejected(self, worked_problem):
        _, trace = solve(worked_problem, config=SolverConfig(record_trace=False))
        with pytest.raises(IncompleteTraceError):
            check_gradient_conjugacy(trace, worked_problem.A)

    def test_raw_array_gives_the_report_of_its_matrix(self):
        problem = builtin_problem(BuiltinProblemSpec(
            family="random_spd", n=60, spectrum=SpectrumSpec(lam_min=1.0, lam_max=1e3),
            seed=4, b_mode="random", b_seed=2))
        _, trace = solve(problem)
        want = check_gradient_conjugacy(trace, problem.A)
        got = check_gradient_conjugacy(trace, problem.A.to_dense())
        assert got == want
        for mine, theirs in zip(got.checks, want.checks):
            assert mine.count == theirs.count > 0
            for name in ("normalized", "raw", "indices", "passes"):
                assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes()

    def test_asymmetric_raw_array_refused(self, worked_trace):
        with pytest.raises(SymmetryError):
            check_gradient_conjugacy(worked_trace, [[2.0, 0.5], [0.0, 1.0]])


class TestStepsizeEquivalence:
    def test_worked_instance_discrepancy_zero(self, worked_trace):
        report = check_stepsize_equivalence(worked_trace)
        assert report.passed
        residuals = report.checks[0].residuals
        assert len(residuals) == 2
        assert abs(residuals[0].normalized) <= 1e-15
        assert abs(residuals[1].normalized) <= 1e-15

    def test_identity_matrix_discrepancy_zero(self):
        problem = QuadraticProblem(MatrixSPD.from_dense(np.eye(3)),
                                   [1.0, -2.0, 0.5])
        _, trace = solve(problem)
        report = check_stepsize_equivalence(trace)
        assert report.checks[0].worst == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_holds_on_random_problems(self, seed):
        problem = make_spd_problem(np.linspace(1.0, 100.0, 40), seed=seed)
        _, trace = solve(problem)
        report = check_stepsize_equivalence(trace)
        assert report.passed
        assert report.checks[0].worst <= 1e-12


class TestFiniteTermination:
    def test_worked_instance(self, worked_problem, worked_trace):
        report = check_finite_termination(worked_trace, worked_problem)
        assert report.passed
        assert worked_trace.terminated_at == 2

    def test_scaled_identity_terminates_in_one(self):
        problem = QuadraticProblem(MatrixSPD.from_dense(4.0 * np.eye(7)),
                                   np.arange(1.0, 8.0))
        _, trace = solve(problem)
        assert trace.terminated_at == 1
        assert check_finite_termination(trace, problem).passed

    def test_three_distinct_eigenvalues(self):
        vals = np.array([1.0, 5.0, 25.0])
        problem = QuadraticProblem(
            MatrixSPD.from_dense(np.diag(vals[np.arange(10) % 3])),
            np.random.default_rng(1).standard_normal(10))
        _, trace = solve(problem)
        assert trace.terminated_at <= 3
        assert check_finite_termination(trace, problem).passed

    def test_iteration_cap_fails_check(self):
        problem = make_spd_problem(np.linspace(1.0, 100.0, 30), seed=0)
        _, trace = solve(problem, config=SolverConfig(max_iterations=3))
        report = check_finite_termination(trace, problem)
        assert not report.passed
        assert "iteration_cap" in report.checks[0].note


class TestBetaAgreement:
    def test_worked_instance_spread_zero(self, worked_trace):
        report = check_beta_agreement(worked_trace)
        assert report.passed
        residuals = report.checks[0].residuals
        assert len(residuals) == 1
        assert abs(residuals[0].normalized) <= 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_all_rules_agree_on_random_problems(self, seed):
        problem = make_spd_problem(np.linspace(1.0, 50.0, 25), seed=seed)
        _, trace = solve(problem)
        report = check_beta_agreement(trace)
        assert report.passed
        assert report.checks[0].worst <= 1e-8


class TestToleranceSchedule:
    def test_condition_estimate(self):
        a = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
        assert estimate_condition(a) == pytest.approx(2.0, rel=1e-12)

    def test_well_conditioned_uses_default(self, worked_problem, worked_trace):
        report = check_classical_identities(worked_trace, worked_problem.A)
        assert not report.tolerance_relaxed
        assert report.checks[0].tolerance == 1e-8

    def test_ill_conditioned_relaxes_and_flags(self):
        spec = BuiltinProblemSpec(family="hilbert", n=12)
        problem = builtin_problem(spec)
        _, trace = solve(problem)
        report = run_all_checks(trace, problem)
        assert report.tolerance_relaxed
        # the Ritz estimate (1.63e8) quoted, a lower bound on the exact 1.65e16
        lo, hi = _ritz_extremes(*trace.columns("alpha", "beta"))
        assert report.condition_estimate == hi / lo
        assert CONDITION_RELAX_THRESHOLD < hi / lo < 1e-6 * estimate_condition(problem.A)
        assert any("relaxed" in note for note in report.notes)
        assert any("not an exact-arithmetic certification" in note
                   for note in report.notes)
        # conditioning this extreme visibly degrades the identities
        assert not report.passed
        assert report.worst_violation > 1e-8
        assert "relaxed" in report.summary()

    def test_explicit_tolerance_wins(self, worked_problem, worked_trace):
        report = check_classical_identities(worked_trace, worked_problem.A,
                                            tolerance=1e-3)
        assert report.checks[0].tolerance == 1e-3
        assert not report.tolerance_relaxed

    @pytest.mark.parametrize("call", [
        ["verify", "--check-tol", "-1"],
        ["compare", "--tolerance", "nan"],
        ["compare", "--known-solution", "0,0", "--tolerance", "nan"],  # no steps
        "run_all_checks(tolerance=nan)",
        "check_finite_termination(tolerance_x=-1)",
        "zero-step run_all_checks(tolerance=-1)",
    ], ids=lambda call: " ".join(call) if isinstance(call, list) else call)
    def test_negative_or_nan_tolerance_is_refused(self, call, worked_problem,
                                                  worked_trace, capsys):
        if isinstance(call, list):  # the CLI reports the library's error
            assert main([call[0], "--builtin", "diagonal", "--eigs", "2,1",
                         *call[1:]]) == 1
            assert capsys.readouterr().err.startswith("error: ")
            return
        _, no_steps = solve(worked_problem, x_0=[1.0, 1.0])
        run = {
            "run_all_checks(tolerance=nan)":
                lambda: run_all_checks(worked_trace, worked_problem, tolerance=math.nan),
            "check_finite_termination(tolerance_x=-1)":
                lambda: check_finite_termination(worked_trace, worked_problem,
                                                 tolerance_x=-1.0),
            "zero-step run_all_checks(tolerance=-1)":
                lambda: run_all_checks(no_steps, worked_problem, tolerance=-1.0),
        }[call]
        with pytest.raises(ProblemSpecError, match="must be nonnegative"):
            run()


def eight_value_diagonal(n=4000):
    """Diagonal problem above the densify cap with 8 distinct eigenvalues in [1, 10]."""
    values = np.array([1.0, 1.7, 2.4, 3.3, 4.1, 5.6, 7.2, 10.0])
    spec = BuiltinProblemSpec(family="diagonal", n=n,
                              eigenvalues=tuple(values[np.arange(n) % 8]),
                              b_mode="random", b_seed=3)
    return builtin_problem(spec)


class TestRitzEstimate:
    """The schedule's condition estimate from the CG-Lanczos tridiagonal T_K."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 30), log_cond=st.floats(0.0, 6.0),
           dist=st.sampled_from(["loguniform", "linear", "clustered"]),
           seed=st.integers(0, 2**16), storage=st.sampled_from(["dense", "csr"]))
    def test_ritz_extremes_lie_in_the_spectrum(self, n, log_cond, dist, seed, storage):
        spec = SpectrumSpec(lam_min=1.0, lam_max=10.0 ** log_cond, distribution=dist)
        a = generate_spd(n, spec, seed)
        if storage == "csr":
            m = sparse.csr_matrix(a.to_dense())
            a = MatrixSPD.from_csr(m.indptr, m.indices, m.data, n)
        problem = QuadraticProblem(a, np.random.default_rng(seed + 1).standard_normal(n))
        _, trace = solve(problem)
        if not trace.records:
            return
        lo, hi = _ritz_extremes(*trace.columns("alpha", "beta"))
        lam = np.linalg.eigvalsh(a.to_dense())
        # T_K's entries are ratios of recorded length-n dot products; their
        # rounding, amplified by up to the condition, moves a Ritz value by
        # about n eps cond lam_max at most (measured: below a quarter of this)
        slack = 4.0 * n * EPS * (lam[-1] / lam[0]) * lam[-1]
        assert lam[0] - slack <= lo <= hi <= lam[-1] + slack

        report = check_classical_identities(trace, a)
        assert report.tolerance_relaxed == (hi / lo > CONDITION_RELAX_THRESHOLD)
        assert report.condition_estimate == hi / lo  # relaxed or not, at every order

    def test_above_densify_cap_reports_the_estimate(self):
        problem = eight_value_diagonal()
        _, trace = solve(problem)
        assert trace.terminated_at == 8
        report = run_all_checks(trace, problem)
        assert report.condition_estimate == pytest.approx(10.0, rel=1e-10)
        assert not report.tolerance_relaxed
        assert report.check("descent").tolerance == 1e-8
        assert report.passed

    def test_laplacian_above_densify_cap_is_relaxed(self):
        problem = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=3000))
        _, trace = solve(problem)
        report = check_classical_identities(trace, problem.A)
        assert report.tolerance_relaxed
        assert report.check("descent").tolerance == 1e-5
        assert report.condition_estimate == pytest.approx(3.649994e6, rel=1e-5)
        assert any("relaxed" in note for note in report.notes)

    def test_one_record_trace(self):
        problem = QuadraticProblem(MatrixSPD.from_dense([[2.0]]), [1.0])
        _, trace = solve(problem)
        assert len(trace.records) == 1
        for report in (check_classical_identities(trace, problem.A),
                       check_gradient_conjugacy(trace, problem.A),
                       run_all_checks(trace, problem)):
            assert report.condition_estimate == 1.0
            assert not report.tolerance_relaxed

    @pytest.mark.parametrize("field, factor", [("alpha", -1.0), ("alpha", 0.0),
                                               ("beta", -1.0), ("beta", math.nan)])
    def test_invalid_recorded_step_gives_infinite_estimate(self, field, factor):
        problem = eight_value_diagonal()
        _, trace = solve(problem)
        records = list(trace.records)
        records[3] = replace(records[3], **{field: factor * getattr(records[3], field)})
        broken = replace(trace, records=tuple(records))
        report = check_classical_identities(broken, problem.A)
        assert report.condition_estimate == math.inf
        assert report.tolerance_relaxed

    @pytest.mark.parametrize("route", ["numpy", "default"])
    def test_extremes_agree_with_the_tridiagonal_eigensolver(self, monkeypatch, route):
        # with the bound lifted every K takes NumPy's dense eigensolve; by
        # default K > RITZ_DENSE_MAX takes SciPy's.  Each extreme is within
        # 4 K eps of the largest Ritz value of SciPy's (normwise): measured
        # over such draws, below 0.92 K eps
        from scipy.linalg import eigvalsh_tridiagonal

        if route == "numpy":
            monkeypatch.setattr(verify, "RITZ_DENSE_MAX", 10**6)
        rng = np.random.default_rng(11)
        for k in range(1, 71):
            for _ in range(10):
                spread = rng.uniform(0.0, 8.0)  # of log(alpha) and log(beta)
                alpha = np.exp(rng.uniform(-spread, 0.0, k))
                beta = np.exp(rng.uniform(-spread, 1.0, k))
                diag, off = verify._lanczos_tridiagonal(alpha, beta)
                (lo,), (hi,) = (eigvalsh_tridiagonal(diag, off, select="i",
                                                     select_range=(i, i))
                                for i in (0, k - 1))
                got = np.array(_ritz_extremes(alpha, beta))
                assert np.abs(got - [lo, hi]).max() <= 4.0 * k * EPS * hi
                if route == "default" and k > verify.RITZ_DENSE_MAX:
                    assert got.tolist() == [lo, hi]

    def test_well_conditioned_path_runs_no_dense_eigensolve(self, monkeypatch):
        spec = BuiltinProblemSpec(family="random_spd", n=200, seed=5,
                                  spectrum=SpectrumSpec(lam_min=1.0, lam_max=50.0,
                                                        distribution="linear"))
        problem = builtin_problem(spec)
        _, trace = solve(problem)
        # relaxed runs, dense and CSR, quote the Ritz estimate all the same
        relaxed = []
        for spec in (BuiltinProblemSpec(family="hilbert", n=12),
                     BuiltinProblemSpec(family="laplacian1d", n=1000, b_mode="random")):
            other = builtin_problem(spec)
            relaxed.append((other, solve(other)[1]))

        def refuse(*args, **kwargs):
            raise AssertionError("densified matrix in the verifier")

        eigvalsh = np.linalg.eigvalsh

        def eigvalsh_of_tridiagonal(t, *args, **kwargs):
            # short runs take their Ritz extremes from the dense T_K; any
            # other eigensolve would be of A
            if np.count_nonzero(np.tril(t, -2)) or np.count_nonzero(np.triu(t, 2)):
                raise AssertionError("eigensolve of a matrix that is not tridiagonal")
            return eigvalsh(t, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_of_tridiagonal)
        monkeypatch.setattr(MatrixSPD, "to_dense", refuse)
        report = run_all_checks(trace, problem)
        assert report.passed
        assert not report.tolerance_relaxed
        assert report.condition_estimate == pytest.approx(50.0, rel=1e-3)
        for check in (check_classical_identities, check_gradient_conjugacy):
            assert check(trace, problem.A).passed
        for other, other_trace in relaxed:
            report = run_all_checks(other_trace, other)
            lo, hi = _ritz_extremes(*other_trace.columns("alpha", "beta"))
            assert report.tolerance_relaxed
            assert report.condition_estimate == hi / lo
            assert f"condition {hi / lo:.2e}" in report.notes[0]


class TestRunAllChecks:
    def test_worked_instance_all_pass(self, worked_problem, worked_trace):
        report = run_all_checks(worked_trace, worked_problem)
        assert report.passed
        names = {c.check for c in report.checks}
        assert names == {
            "descent", "direction_conjugacy",
            "gradient_direction_orthogonality", "gradient_orthogonality",
            "gradient_conjugacy_adjacent", "gradient_conjugacy_far",
            "stepsize_equivalence", "beta_agreement", "finite_termination",
        }

    def test_reports_are_deterministic(self, worked_problem, worked_trace):
        first = run_all_checks(worked_trace, worked_problem)
        second = run_all_checks(worked_trace, worked_problem)
        assert first == second

    def test_zero_iteration_trace_skips_identity_checks(self, worked_problem):
        _, trace = solve(worked_problem, x_0=[1.0, 1.0])
        report = run_all_checks(trace, worked_problem)
        assert report.passed
        assert [c.check for c in report.checks] == ["finite_termination"]
        assert any("skipped" in note for note in report.notes)

    def test_summary_mentions_every_check(self, worked_problem, worked_trace):
        report = run_all_checks(worked_trace, worked_problem)
        text = report.summary()
        assert text.count("[PASS]") == len(report.checks)
        assert "overall: PASS" in text


class TestScalingCovariance:
    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_iterates_invariant_under_simultaneous_scaling(self, c):
        problem = make_spd_problem(np.linspace(1.0, 10.0, 20), seed=6)
        scaled = QuadraticProblem(
            MatrixSPD.from_dense(c * problem.A.to_dense()), c * problem.b)
        _, base = solve(problem)
        _, other = solve(scaled)
        assert base.terminated_at == other.terminated_at
        for rec_a, rec_b in zip(base.records, other.records):
            scale = max(np.abs(rec_a.x).max(), 1e-30)
            assert np.abs(rec_a.x - rec_b.x).max() <= 1e-10 * scale
        np.testing.assert_allclose(other.final_x, base.final_x,
                                   rtol=1e-10, atol=1e-12)


def test_manual_trace_without_cached_products_rejected(worked_problem):
    rec = None
    _, trace = solve(worked_problem)
    from dataclasses import replace
    rec = replace(trace.records[0], Ad=None, d=None, alpha=None, beta=None)
    broken = IterationTrace(records=(rec,), final_x=trace.final_x,
                            final_g=trace.final_g, terminated_at=1,
                            termination_reason=TerminationReason.ITERATION_CAP,
                            grad_tolerance=trace.grad_tolerance)
    with pytest.raises(IncompleteTraceError, match="record 0 has no"):
        check_classical_identities(broken, worked_problem.A)


@pytest.mark.parametrize("name", ["nope", "descent "])
def test_check_of_an_unknown_name_is_refused(worked_problem, worked_trace, name):
    report = run_all_checks(worked_trace, worked_problem)
    assert_refused(lambda: report.check(name), KeyError, f"no check named {name!r}")
