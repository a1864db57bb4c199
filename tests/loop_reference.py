"""Per-pair loop evaluation of the verifier's identity families.

This is the verifier as it was written before it became Gram products:
one Python step and one scalar dot product per identity instance.  Tests
keep it as the reference the vectorized ``cgkit.verify`` is compared with.
``loop_families`` returns, per family name, the list of evaluated
instances and the family's note.
"""

from __future__ import annotations

import math

import numpy as np

from cgkit import (
    BreakdownError,
    IdentityResidual,
    beta,
    dot,
    stepsize_exact,
    stepsize_orthogonal,
)

_FLOOR = np.finfo(np.float64).tiny


def _normalized(raw: float, scale: float) -> float:
    return raw / max(scale, _FLOOR)


def _matvec_any(a, v):
    if hasattr(a, "matvec"):
        return a.matvec(v)
    return np.asarray(a, dtype=np.float64) @ v


def classical(recs, tol):
    K = len(recs)
    gnorm = [rec.grad_norm() for rec in recs]
    dnorm = [float(np.linalg.norm(rec.d)) for rec in recs]
    dAd = [dot(recs[i].d, recs[i].Ad) for i in range(K)]
    descent, conjugacy, grad_dir, grad_orth = [], [], [], []
    for i in range(K):
        raw = dot(recs[i].g, recs[i].d) + gnorm[i] ** 2
        norm = _normalized(raw, gnorm[i] ** 2)
        descent.append(IdentityResidual("descent", (i,), raw, norm, abs(norm) <= tol))
        for j in range(i):
            raw = dot(recs[i].d, recs[j].Ad)
            norm = _normalized(raw, math.sqrt(dAd[i] * dAd[j]))
            conjugacy.append(IdentityResidual("direction_conjugacy", (i, j),
                                              raw, norm, abs(norm) <= tol))
            raw = dot(recs[i].g, recs[j].d)
            norm = _normalized(raw, gnorm[i] * dnorm[j])
            grad_dir.append(IdentityResidual("gradient_direction_orthogonality",
                                             (i, j), raw, norm, abs(norm) <= tol))
            raw = dot(recs[i].g, recs[j].g)
            norm = _normalized(raw, gnorm[i] * gnorm[j])
            grad_orth.append(IdentityResidual("gradient_orthogonality", (i, j),
                                              raw, norm, abs(norm) <= tol))
    return {"descent": (descent, ""), "direction_conjugacy": (conjugacy, ""),
            "gradient_direction_orthogonality": (grad_dir, ""),
            "gradient_orthogonality": (grad_orth, "")}


def gradient_conjugacy(recs, a, tol):
    K = len(recs)
    Ag = [_matvec_any(a, rec.g) for rec in recs]
    anorm = [math.sqrt(max(dot(recs[i].g, Ag[i]), 0.0)) for i in range(K)]
    adjacent, far = [], []
    note = "single recorded iteration: no gradient pairs to check" if K == 1 else ""
    for k in range(K - 1):
        g_next = recs[k + 1].g
        raw = dot(g_next, Ag[k]) + dot(g_next, g_next) / recs[k].alpha
        norm = _normalized(raw, anorm[k + 1] * anorm[k])
        adjacent.append(IdentityResidual("gradient_conjugacy_adjacent",
                                         (k + 1, k), raw, norm, abs(norm) <= tol))
        for i in range(k):
            raw = dot(g_next, Ag[i])
            norm = _normalized(raw, anorm[k + 1] * anorm[i])
            far.append(IdentityResidual("gradient_conjugacy_far", (k + 1, i),
                                        raw, norm, abs(norm) <= tol))
    return {"gradient_conjugacy_adjacent": (adjacent, note),
            "gradient_conjugacy_far": (far, note)}


def stepsize_equivalence(recs, tol):
    residuals, notes = [], []
    for rec in recs:
        try:
            a_exact = stepsize_exact(rec.g, rec.d, rec.Ad)
            a_orth = stepsize_orthogonal(rec.g, rec.Ad)
        except BreakdownError as err:
            notes.append(f"iteration {rec.k}: {err}")
            residuals.append(IdentityResidual("stepsize_equivalence", (rec.k,),
                                              math.inf, math.inf, False))
            continue
        raw = a_exact - a_orth
        norm = _normalized(raw, abs(a_exact))
        residuals.append(IdentityResidual("stepsize_equivalence", (rec.k,),
                                          raw, norm, abs(norm) <= tol))
    return {"stepsize_equivalence": (residuals, "; ".join(notes))}


def beta_agreement(recs, tol):
    residuals, notes = [], []
    note = "single recorded iteration: no coupling step to compare" if len(recs) == 1 else ""
    for k in range(1, len(recs)):
        g_k, g_prev, d_prev = recs[k].g, recs[k - 1].g, recs[k - 1].d
        values, failed = [], []
        for rule in ("fr", "hs", "prp", "dy"):
            try:
                values.append(beta(rule, g_k, g_prev, d_prev))
            except BreakdownError as err:
                failed.append(f"iteration {k}: {err}")
        if failed:
            notes.extend(failed)
            residuals.append(IdentityResidual("beta_agreement", (k,),
                                              math.inf, math.inf, False))
            continue
        peak = max(abs(v) for v in values)
        raw = max(values) - min(values)
        norm = raw / peak if peak > 0.0 else 0.0
        residuals.append(IdentityResidual("beta_agreement", (k,), raw, norm,
                                          abs(norm) <= tol))
    if notes:
        note = (note + "; " if note else "") + "; ".join(notes)
    return {"beta_agreement": (residuals, note)}


def loop_families(trace, a, tol, stepsize_tol):
    """Every identity family of ``run_all_checks`` at tolerance ``tol``."""
    recs = tuple(trace.records)  # indexed in O(K^2) loops; each index is a replay
    return {**classical(recs, tol), **gradient_conjugacy(recs, a, tol),
            **stepsize_equivalence(recs, stepsize_tol), **beta_agreement(recs, tol)}
