"""The Gram-product verifier against the per-pair loop reference.

Both evaluate the same formulas; only the summation order of the dot
products differs (BLAS Gram products and row-wise ``einsum`` against one
scalar ``dot`` per instance, and one block product ``A G`` against one
matvec per gradient).  Each correctly rounded float64 evaluation of
``u . v`` lies within ``gamma_n |u|.|v|`` of the exact value, with
``gamma_n = n eps / (1 - n eps)``, so the two implementations may differ
per instance by the bound ``rounding_bounds`` derives from that.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgkit import (
    IterationRecord,
    IterationTrace,
    MatrixSPD,
    QuadraticProblem,
    SolverConfig,
    SpectrumSpec,
    TerminationReason,
    check_beta_agreement,
    check_stepsize_equivalence,
    generate_spd,
    report_from_dict,
    report_to_dict,
    run_all_checks,
    solve,
)
from cgkit.problems_io import BuiltinProblemSpec, builtin_problem
from cgkit.linalg import DENSIFY_CAP
from cgkit.verify import STEPSIZE_TOLERANCE
from loop_reference import beta_agreement, loop_families, stepsize_equivalence

EPS = np.finfo(np.float64).eps


def _rows(u, v):
    return np.einsum("ij,ij->i", u, v)


def rounding_bounds(trace, a_dense):
    """Per-instance bound on |vectorized - loop| normalized residual, in the
    loop reference's instance order."""
    recs = trace.records
    G = np.array([r.g for r in recs])
    D = np.array([r.d for r in recs])
    AD = np.array([r.Ad for r in recs])
    alpha = np.array([r.alpha for r in recs])
    K, n = G.shape
    gam = n * EPS / (1.0 - n * EPS)
    aG, aD, aAD = np.abs(G), np.abs(D), np.abs(AD)
    AG = G @ a_dense.T
    aAaG = aG @ np.abs(a_dense).T  # |A| |g_k| as rows

    gg = _rows(G, G)
    dAd = _rows(D, AD)
    gAg = _rows(G, AG)
    c_dAd = _rows(aD, aAD) / np.abs(dAd)  # conditioning of each d.Ad
    c_gAg = 2.0 * _rows(aG, aAaG) / np.abs(gAg)
    i, j = np.tril_indices(K, -1)

    def normalized_bound(abs_dot, scale, z, scale_rel):
        # both raw values within gam * abs_dot of the exact one; both scales
        # within scale_rel of each other
        return 2.0 * gam * abs_dot / scale + (scale_rel + 4 * EPS) * np.abs(z)

    def z(raw, scale):
        return raw / scale

    out = {}
    raw = _rows(G, D) + gg
    out["descent"] = normalized_bound(_rows(aG, aD) + gg, gg, z(raw, gg), 4 * gam)
    scale = np.sqrt(dAd[i] * dAd[j])
    out["direction_conjugacy"] = normalized_bound(
        (aD @ aAD.T)[i, j], scale, z((D @ AD.T)[i, j], scale),
        2 * gam * (c_dAd[i] + c_dAd[j]))
    gn, dn = np.sqrt(gg), np.sqrt(_rows(D, D))
    out["gradient_direction_orthogonality"] = normalized_bound(
        (aG @ aD.T)[i, j], gn[i] * dn[j], z((G @ D.T)[i, j], gn[i] * dn[j]), 4 * gam)
    out["gradient_orthogonality"] = normalized_bound(
        (aG @ aG.T)[i, j], gn[i] * gn[j], z((G @ G.T)[i, j], gn[i] * gn[j]), 4 * gam)

    # A g_i itself is computed two ways: twice the dot-product bound
    anorm = np.sqrt(np.abs(gAg))
    gag, agag = G @ AG.T, 2.0 * (aG @ aAaG.T)
    k = np.arange(K - 1)
    extra = gg[k + 1] / alpha[k]
    scale = anorm[k + 1] * anorm[k]
    out["gradient_conjugacy_adjacent"] = normalized_bound(
        agag[k + 1, k] + gg[k + 1] / np.abs(alpha[k]), scale,
        z(gag[k + 1, k] + extra, scale), gam * (c_gAg[k + 1] + c_gAg[k]))
    p, q = np.tril_indices(K, -2)
    scale = anorm[p] * anorm[q]
    out["gradient_conjugacy_far"] = normalized_bound(
        agag[p, q], scale, z(gag[p, q], scale), gam * (c_gAg[p] + c_gAg[q]))

    gd, gAd = _rows(G, D), _rows(G, AD)
    a_exact = -gd / dAd
    r = (a_exact + gg / gAd) / np.abs(a_exact)
    rel = 2 * gam * (_rows(aG, aD) / np.abs(gd) + c_dAd
                     + 1.0 + _rows(aG, aAD) / np.abs(gAd)) + 8 * EPS
    out["stepsize_equivalence"] = 2.0 * rel * (1.0 + np.abs(r))

    g, gp, dp = G[1:], G[:-1], D[:-1]
    y = g - gp
    gy, dy = _rows(g, y), _rows(dp, y)
    rel = 2 * gam * (_rows(np.abs(g), np.abs(y)) / np.abs(gy)
                     + _rows(np.abs(dp), np.abs(y)) / np.abs(dy) + 2.0) + 8 * EPS
    betas = np.stack([gg[1:] / gg[:-1], gy / dy, gy / gg[:-1], gg[1:] / dy])
    spread = np.ptp(betas, axis=0) / np.abs(betas).max(axis=0)
    out["beta_agreement"] = 2.0 * rel * (2.0 + spread)
    return {name: 2.0 * bound for name, bound in out.items()}  # safety factor


def _csr_copy(a: MatrixSPD) -> MatrixSPD:
    m = sparse.csr_matrix(a.to_dense())
    return MatrixSPD.from_csr(m.indptr, m.indices, m.data, a.n)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 30), log_cond=st.floats(0.0, 3.0),
       dist=st.sampled_from(["loguniform", "linear", "clustered"]),
       seed=st.integers(0, 2**16), storage=st.sampled_from(["dense", "csr"]))
def test_families_match_loop_reference(n, log_cond, dist, seed, storage):
    spec = SpectrumSpec(lam_min=1.0, lam_max=10.0 ** log_cond, distribution=dist)
    a = generate_spd(n, spec, seed)
    if storage == "csr":
        a = _csr_copy(a)
    problem = QuadraticProblem(a, np.random.default_rng(seed + 1).standard_normal(n))
    _, trace = solve(problem)
    if not trace.records:
        return
    report = run_all_checks(trace, problem)
    tol = report.check("descent").tolerance
    expected = loop_families(trace, problem.A, tol, STEPSIZE_TOLERANCE)
    bounds = rounding_bounds(trace, a.to_dense())

    for name, (residuals, note) in expected.items():
        got = report.check(name)
        bound = bounds[name]
        want = np.array([r.normalized for r in residuals])
        want_passes = np.array([r.passed for r in residuals], dtype=bool)
        assert got.count == len(residuals), name
        assert got.note == note, name
        assert [r.indices for r in got.residuals] == [r.indices for r in residuals]
        assert np.all(np.abs(got.normalized - want) <= bound), name
        # verdicts must agree wherever rounding cannot reach the tolerance
        clear = np.abs(np.abs(want) - got.tolerance) > bound
        assert np.array_equal(got.passes[clear], want_passes[clear]), name
        if clear.all():
            assert got.failures == int((~want_passes).sum()), name
            assert got.passed == bool(want_passes.all()), name
        if not residuals:
            assert got.worst == 0.0 and got.worst_at == ()
            continue
        magnitude = np.abs(want)
        worst = float(magnitude.max())
        slack = float(bound.max())
        assert abs(got.worst - worst) <= slack, name
        # the worst instance is the loop's, unless the two tie within rounding
        at = [r.indices for r in residuals].index(got.worst_at)
        assert (got.worst_at == residuals[int(magnitude.argmax())].indices
                or magnitude[at] >= worst - 2.0 * slack), name


def _record(k, g, d, Ad, beta=None):
    g, d, Ad = (np.array(v, dtype=np.float64) for v in (g, d, Ad))
    return IterationRecord(k=k, x=np.zeros(2), g=g, d=d, alpha=1.0, beta=beta, Ad=Ad)


@pytest.fixture
def degenerate_trace():
    """Hand-built records whose denominators vanish.

    k=0: d.Ad = 0 (exact stepsize); k=2: g.Ad = 0 (orthogonality stepsize)
    and all four betas are zero; beta at k=1: d_prev.y = 0 (HS, DY); beta
    at k=3: ||g_prev||^2 = 0 (FR, PRP).
    """
    records = (
        _record(0, [1, 0], [0, 0], [0, 0]),
        _record(1, [0, 1], [0, 1], [0, 1], beta=0.5),
        _record(2, [0, 0], [1, 0], [2, 0], beta=0.5),
        _record(3, [1, 1], [-1, -1], [-2, -1], beta=0.5),
    )
    return IterationTrace(records=records, final_x=np.zeros(2), final_g=np.zeros(2),
                          terminated_at=4,
                          termination_reason=TerminationReason.ITERATION_CAP,
                          grad_tolerance=0.0)


def test_vanishing_denominators_match_loop_reference(degenerate_trace):
    recs = degenerate_trace.records
    for got, (residuals, note) in (
            (check_stepsize_equivalence(degenerate_trace).checks[0],
             stepsize_equivalence(recs, STEPSIZE_TOLERANCE)["stepsize_equivalence"]),
            (check_beta_agreement(degenerate_trace).checks[0],
             beta_agreement(recs, 1e-8)["beta_agreement"])):
        assert got.residuals == tuple(residuals)
        assert got.note == note
        assert got.worst == math.inf and not got.passed
    stepsize = check_stepsize_equivalence(degenerate_trace).checks[0]
    assert stepsize.failures == 2 and stepsize.worst_at == (0,)
    assert "iteration 0: exact-stepsize denominator" in stepsize.note
    assert "iteration 2: orthogonality-stepsize denominator" in stepsize.note
    agreement = check_beta_agreement(degenerate_trace).checks[0]
    assert [r.normalized for r in agreement.residuals] == [math.inf, 0.0, math.inf]
    assert [part.split(" denominator")[0] for part in agreement.note.split("; ")] == [
        "iteration 1: HS", "iteration 1: DY", "iteration 3: FR", "iteration 3: PRP"]


def test_finite_termination_passes_above_densify_cap():
    n = 4000
    values = np.array([1.0, 1.7, 2.4, 3.3, 4.1, 5.6, 7.2, 10.0])
    spec = BuiltinProblemSpec(family="diagonal", n=n,
                              eigenvalues=tuple(values[np.arange(n) % 8]),
                              b_mode="random", b_seed=3)
    problem = builtin_problem(spec)
    _, trace = solve(problem)
    assert trace.terminated_at == 8
    report = run_all_checks(trace, problem)
    finite = report.check("finite_termination")
    assert finite.passed, finite.note
    assert finite.note == ""
    assert report.passed


def test_report_document_is_summary_only_by_default(worked_problem):
    _, trace = solve(worked_problem)
    report = run_all_checks(trace, worked_problem)
    summary = report_to_dict(report)
    assert all("residuals" not in entry for entry in summary["checks"])
    conjugacy = next(e for e in summary["checks"] if e["check"] == "direction_conjugacy")
    assert conjugacy["residual_count"] == 1 and conjugacy["worst_at"] == [1, 0]
    assert report_from_dict(summary).summary() == report.summary()

    full = report_from_dict(report_to_dict(report, include_residuals=True))
    assert full == report
    for restored, original in zip(full.checks, report.checks):
        assert restored.residuals == original.residuals


def test_capped_run_counts_failed_instances(worked_problem):
    _, trace = solve(worked_problem, config=SolverConfig(max_iterations=1))
    finite = run_all_checks(trace, worked_problem).check("finite_termination")
    assert (finite.count, finite.failures) == (2, 2)
    assert [r.identity for r in finite.residuals] == [
        "terminates_within_dimension", "solution_matches_direct_solve"]


def test_finite_termination_passes_for_dense_storage_above_densify_cap():
    spec = BuiltinProblemSpec(family="random_spd", n=DENSIFY_CAP + 1,
                              spectrum=SpectrumSpec(lam_min=1.0, lam_max=10.0,
                                                    distribution="linear"),
                              seed=1, b_mode="random", b_seed=2)
    problem = builtin_problem(spec)
    assert problem.A.storage == "dense"
    _, trace = solve(problem)
    report = run_all_checks(trace, problem)
    finite = report.check("finite_termination")
    assert finite.passed, finite.note
    assert finite.note == ""
    assert report.passed
