"""Independent reference checks of cgkit's outputs.

Every check here recomputes a result with NumPy/SciPy from the inputs or
from the recorded iteration vectors, and returns a list of disagreements
(empty when the program's output is right).

Identity residuals are recomputed as Gram products of the stacked record
vectors.  Two correct float64 implementations of one dot product differ only
by summation order, and each lies within ``gamma_n * |u|.|v|`` of the exact
value (the standard bound, ``gamma_n = n eps / (1 - n eps)``).  So each
recomputed residual comes with that bound, ``b``; the program's worst
residual must lie within ``2 b`` of the recomputed one, and its verdict is
only required where the recomputed residual clears the tolerance by more
than ``2 b``.

One disagreement is a known defect of cgkit (ROADMAP item 4a): above the
2000-row densify cap the finite-termination oracle refuses to densify and
reports FAIL although CG converged to the right solution.  ``check_certificate``
returns that case apart from the other disagreements, and only when the
program's note names the refusal; every other disagreement on the same
operation still counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny
SOLUTION_TOLERANCE = 1e-10  # cgkit's finite-termination tolerance on x
DENSIFY_CAP = 2000  # cgkit's documented limit on densifying a sparse matrix
REFUSED_TO_DENSIFY = re.compile(r"direct-solve oracle failed: .*exceeds cap")
TIMESTAMP = re.compile(r'^ *"created": "[^"]*",?\n', re.M)


def _gamma(n: int) -> float:
    return n * EPS / (1.0 - n * EPS)


def _rows_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def identity_residuals(records, a_ref) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-family (|normalized residual|, rounding bound) arrays.

    ``records`` are cgkit iteration records (fields g, d, Ad, alpha);
    ``a_ref`` is the matrix as a NumPy array or SciPy sparse matrix.
    """
    G = np.array([r.g for r in records])
    D = np.array([r.d for r in records])
    AD = np.array([r.Ad for r in records])
    alpha = np.array([r.alpha for r in records])
    K, n = G.shape
    gam = _gamma(n)
    aG, aD, aAD = np.abs(G), np.abs(D), np.abs(AD)
    AG = np.asarray((a_ref @ G.T).T)
    aAaG = np.asarray((abs(a_ref) @ aG.T).T)

    gg = _rows_dot(G, G)
    gn = np.sqrt(gg)
    dn = np.sqrt(_rows_dot(D, D))
    dAd = _rows_dot(D, AD)
    gAg = _rows_dot(G, AG)
    anorm = np.sqrt(np.maximum(gAg, 0.0))
    lower = np.tril_indices(K, -1)
    out = {}

    def family(name, raw, bound, scale):
        scale = np.maximum(scale, TINY)
        out[name] = (np.abs(raw) / scale, bound / scale)

    gd = _rows_dot(G, D)
    family("descent", gd + gg, gam * (_rows_dot(aG, aD) + gg), gg)

    i, j = lower
    family("direction_conjugacy", (D @ AD.T)[i, j], gam * (aD @ aAD.T)[i, j],
           np.sqrt(dAd[i] * dAd[j]))
    family("gradient_direction_orthogonality", (G @ D.T)[i, j],
           gam * (aG @ aD.T)[i, j], gn[i] * dn[j])
    family("gradient_orthogonality", (G @ G.T)[i, j], gam * (aG @ aG.T)[i, j],
           gn[i] * gn[j])

    # g_p . A g_i; A g_i itself carries a rounding error of the same form
    gag = G @ AG.T
    agag = 2.0 * gam * (aG @ aAaG.T)
    k = np.arange(K - 1)
    extra = gg[k + 1] / alpha[k]
    family("gradient_conjugacy_adjacent", gag[k + 1, k] + extra,
           agag[k + 1, k] + (gam + EPS) * np.abs(extra), anorm[k + 1] * anorm[k])
    p, q = np.tril_indices(K, -2)
    family("gradient_conjugacy_far", gag[p, q], agag[p, q], anorm[p] * anorm[q])

    # both stepsize formulas, each a ratio of two dot products
    gAd = _rows_dot(G, AD)
    a_exact = -gd / dAd
    a_orth = -gg / gAd
    rel = (gam * (_rows_dot(aG, aD) / np.abs(gd) + _rows_dot(aD, aAD) / np.abs(dAd))
           + gam * (1.0 + _rows_dot(aG, aAD) / np.abs(gAd)) + 4 * EPS)
    r = (a_exact - a_orth) / np.abs(a_exact)
    out["stepsize_equivalence"] = (np.abs(r), 2.0 * rel * (1.0 + np.abs(r)))

    # FR, HS, PRP and DY from (g_k, g_{k-1}, d_{k-1}), k >= 1
    g, gp, dp = G[1:], G[:-1], D[:-1]
    y = g - gp
    gy, dy = _rows_dot(g, y), _rows_dot(dp, y)
    num_gg, den_pp = gg[1:], gg[:-1]
    betas = np.stack([num_gg / den_pp, gy / dy, gy / den_pp, num_gg / dy])
    rel_gy = gam * _rows_dot(np.abs(g), np.abs(y)) / np.abs(gy)
    rel_dy = gam * _rows_dot(np.abs(dp), np.abs(y)) / np.abs(dy)
    worst_rel = rel_gy + rel_dy + 2 * gam + 4 * EPS  # covers all four ratios
    peak = np.abs(betas).max(axis=0)
    spread = (betas.max(axis=0) - betas.min(axis=0)) / np.maximum(peak, TINY)
    out["beta_agreement"] = (spread, 2.0 * worst_rel * (1.0 + spread))
    return out


def residual_count(K: int) -> int:
    """Identity instances ``run_all_checks`` evaluates on K records."""
    pairs = K * (K - 1) // 2
    far = (K - 1) * (K - 2) // 2 if K >= 2 else 0
    return K + 3 * pairs + (K - 1) + far + K + (K - 1) + 2


def check_family(result, residuals, bounds) -> list[str]:
    """Compare one cgkit CheckResult (worst, passed, tolerance) with the
    recomputed residuals of its family."""
    tol = result.tolerance
    lo = float(np.max(residuals - 2 * bounds, initial=0.0))
    hi = float(np.max(residuals + 2 * bounds, initial=0.0))
    problems = []
    if not (lo * (1 - 1e-6) <= result.worst <= hi * (1 + 1e-6) + TINY):
        problems.append(f"{result.check}: worst {result.worst:.6e} outside "
                        f"recomputed [{lo:.6e}, {hi:.6e}]")
    if hi <= tol and not result.passed:
        problems.append(f"{result.check}: FAIL, but every recomputed residual "
                        f"is below {tol:.0e} (max {hi:.3e})")
    if lo > tol and result.passed:
        problems.append(f"{result.check}: PASS, but a recomputed residual "
                        f"exceeds {tol:.0e} ({lo:.3e})")
    return problems


def check_certificate(problem_n, trace, report, text, a_ref, b, x_ref,
                      seen=None) -> tuple[list[str], list[str]]:
    """Check one certify operation: every identity family, the finite-
    termination verdict against a direct solve, and the serialized report.

    Returns (disagreements, known defects).  ``seen`` is a dict kept per
    input across operations: a report whose text, apart from its creation
    time, and whose verdict, iteration count and final x equal an earlier
    checked one is not parsed again.
    """
    problems, known = [], []
    families = identity_residuals(trace.records, a_ref)
    for name, (residuals, bounds) in families.items():
        problems += check_family(report.check(name), residuals, bounds)

    ft = report.check("finite_termination")
    converged = (trace.termination_reason.value == "gradient_below_tolerance"
                 and trace.terminated_at <= problem_n)
    x = np.asarray(trace.final_x)
    err = float(np.linalg.norm(x - x_ref) / max(np.linalg.norm(x_ref), TINY))
    true_res = float(np.linalg.norm(a_ref @ x + b) / max(np.linalg.norm(b), TINY))
    clear_pass = converged and err <= 0.5 * SOLUTION_TOLERANCE
    clear_fail = not converged or err >= 2.0 * SOLUTION_TOLERANCE
    if clear_pass and not ft.passed:
        note = getattr(ft, "note", "")
        msg = (f"finite_termination: FAIL, but CG converged in {trace.terminated_at} "
               f"<= n={problem_n} steps and x matches the direct solve "
               f"(rel. error {err:.1e}, residual {true_res:.1e}); program note: {note}")
        refused = problem_n > DENSIFY_CAP and REFUSED_TO_DENSIFY.search(note)
        (known if refused else problems).append(msg)
    if clear_fail and ft.passed:
        problems.append(f"finite_termination: PASS, but converged={converged}, "
                        f"rel. error {err:.1e}")
    if report.passed != all(c.passed for c in report.checks):
        problems.append("overall verdict disagrees with the check verdicts")

    seen = {} if seen is None else seen
    body = hashlib.sha256(TIMESTAMP.sub("", text, count=1).encode()).digest()
    outcome = (report.passed, trace.terminated_at, x.tobytes())
    if seen.get("text") != body or seen.get("outcome") != outcome:
        doc = json.loads(text)
        doc_problems = []
        if doc["verification"]["passed"] != report.passed:
            doc_problems.append("serialized verdict differs from the report")
        if doc["final"]["x"] != x.tolist():
            doc_problems.append("serialized final x does not round-trip")
        if doc["final"]["iterations"] != trace.terminated_at:
            doc_problems.append("serialized iteration count differs")
        if not doc_problems:
            seen.update(text=body, outcome=outcome)
        problems += doc_problems
    return problems, known


def reference_cg(a_ref, b, iterations: int) -> np.ndarray:
    """Plain CG (exact line search, Fletcher-Reeves) from x = 0."""
    x = np.zeros_like(b)
    g = a_ref @ x + b
    d = -g
    gg = g @ g
    for _ in range(iterations):
        ad = a_ref @ d
        step = gg / (d @ ad)
        x += step * d
        g += step * ad
        gg_new = g @ g
        d = -g + (gg_new / gg) * d
        gg = gg_new
    return x


def check_capped_solve(cap, x_untraced, untraced, x_traced, traced,
                       a_ref, b, x_ref) -> list[str]:
    """Check a solve pair stopped by the iteration cap."""
    problems = []
    for label, tr in (("untraced", untraced), ("traced", traced)):
        if tr.termination_reason.value != "iteration_cap" or tr.terminated_at != cap:
            problems.append(f"{label} solve stopped by {tr.termination_reason.value} "
                            f"after {tr.terminated_at} steps; expected the cap {cap}")
    if not np.array_equal(x_untraced, x_traced):
        problems.append("traced and untraced iterates are not bit-identical")
    true_res = float(np.linalg.norm(a_ref @ x_traced + b))
    rec_res = float(np.linalg.norm(traced.final_g))
    if abs(true_res - rec_res) > 1e-8 * max(true_res, np.linalg.norm(b)):
        problems.append(f"true residual {true_res:.9e} differs from the "
                        f"recurrence residual {rec_res:.9e}")
    err = float(np.linalg.norm(x_traced - x_ref) / np.linalg.norm(x_ref))
    if err > 1e-8:
        problems.append(f"iterate differs from the reference CG by {err:.1e}")
    return problems
