"""The paper's identities in exact arithmetic, and float64 runs against them.

``exact_reference.exact_cg`` runs CG in ``fractions.Fraction`` on integer
SPD input MᵀM + I (entries of M in [-3, 3], order at most 8), so every
identity is checked for equality, with no tolerance.  The float64 solver
is then compared with the exact stepsizes and couplings.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgkit import MatrixSPD, QuadraticProblem, TerminationReason, run_all_checks, solve
from exact_reference import BETA_RULES, dot, exact_cg, matvec

# Worst relative error of float64 alpha_k and beta_k against the exact
# values over the steps both runs take, measured over 4000 examples of this
# strategy: 1.8e-14 and 6.4e-13 where float64 takes as many steps as exact
# arithmetic, 4.2e-9 and 4.4e-11 where it takes more.
STEP_RTOL = 1e-7


@st.composite
def integer_spd(draw):
    n = draw(st.integers(1, 8))
    m = draw(arrays(np.int64, (n, n), elements=st.integers(-3, 3)))
    b = draw(arrays(np.int64, n, elements=st.integers(-3, 3)))
    return m.T @ m + np.eye(n, dtype=np.int64), b


@settings(max_examples=40, deadline=None)
@given(integer_spd())
def test_identities_hold_exactly(problem):
    a, b = problem
    run = exact_cg(a.tolist(), b.tolist())
    K = run.steps
    assert run.terminated  # g_K = 0 exactly, within n steps
    G, D, AD = run.G[:K], run.D, run.AD
    AG = [matvec(a.tolist(), g) for g in G]
    for k in range(K):
        assert all(dot(G[k], AG[i]) == 0 for i in range(k - 1))
        assert all(dot(D[k], AD[j]) == 0 for j in range(k))
    assert run.alpha == run.alpha_orthogonal
    assert all(run.betas[rule] == run.betas["fr"] for rule in BETA_RULES)
    # the rest of Q^T A Q, q_k = g_k / |g_k|, is the CG-Lanczos T_K that
    # the verifier's Ritz estimate builds from the recorded alpha and beta
    beta = [Fraction(0), *run.betas["fr"]]
    for k in range(K):
        diagonal = 1 / run.alpha[k] + (beta[k] / run.alpha[k - 1] if k else 0)
        assert dot(G[k], AG[k]) / dot(G[k], G[k]) == diagonal
        if k:
            coupling = dot(G[k], AG[k - 1])
            assert coupling == -dot(G[k], G[k]) / run.alpha[k - 1]
            assert coupling ** 2 / (dot(G[k], G[k]) * dot(G[k - 1], G[k - 1])) == \
                beta[k] / run.alpha[k - 1] ** 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8).flatmap(
    lambda eigs: st.tuples(st.just(eigs), st.lists(st.integers(-3, 3), min_size=len(eigs),
                                                   max_size=len(eigs)))))
def test_diagonal_input_ends_within_its_distinct_eigenvalues(problem):
    eigs, b = problem
    run = exact_cg(np.diag(eigs).tolist(), b)
    assert run.terminated and run.steps <= len(set(eigs))


@settings(max_examples=40, deadline=None)
@given(integer_spd())
def test_float64_runs_match_the_exact_run(problem):
    a, b = problem
    assume(b.any())
    floated = QuadraticProblem(MatrixSPD.from_dense(a.astype(np.float64)),
                               b.astype(np.float64))
    _, trace = solve(floated)
    assume(trace.termination_reason == TerminationReason.GRADIENT_BELOW_TOLERANCE)
    run = exact_cg(a.tolist(), b.tolist())
    alpha, beta = trace.columns("alpha", "beta")
    for k in range(min(len(alpha), run.steps)):
        assert math.isclose(alpha[k], run.alpha[k], rel_tol=STEP_RTOL, abs_tol=0.0)
        if k:
            assert math.isclose(beta[k], run.betas["fr"][k - 1], rel_tol=STEP_RTOL,
                                abs_tol=0.0)
    # Where exact arithmetic ends early (repeated eigenvalues, or b in an
    # invariant subspace), float64 can stop short of the 1e-12 relative
    # tolerance there and take a step from a gradient of rounding noise;
    # the identities of that step do not hold, and the verifier fails them.
    if trace.terminated_at == run.steps:
        assert run_all_checks(trace, floated).passed
