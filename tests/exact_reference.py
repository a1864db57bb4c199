"""Conjugate gradients in exact rational arithmetic.

The paper's identities hold exactly in exact arithmetic: the far gradient
pairs are A-conjugate (g_k . A g_i = 0 for i <= k-2), the directions are
A-conjugate, the four coupling rules (FR, HS, PRP, DY) coincide, and the
exact-line-search and orthogonality stepsizes are one number.  Run in
``fractions.Fraction``, the iteration has no rounding, so tests can check
each identity for equality, with no tolerance, and compare float64 runs
with the exact stepsizes and couplings.

``exact_cg(A, b)`` minimizes ``0.5 x.A x + b.x`` from x_0 = 0 for a
symmetric positive definite ``A`` given as rows of integers or fractions.
It takes the FR coupling, as ``cgkit.solve`` does by default, and stops at
the first gradient that is exactly zero, or after ``len(A)`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
BETA_RULES = ("fr", "hs", "prp", "dy")


def dot(u, v) -> Fraction:
    return sum((p * q for p, q in zip(u, v)), ZERO)


def matvec(a, v) -> list[Fraction]:
    return [dot(row, v) for row in a]


def _axpy(s: Fraction, u, v) -> list[Fraction]:
    """``s u + v``."""
    return [s * p + q for p, q in zip(u, v)]


@dataclass(frozen=True)
class ExactRun:
    """Every vector and scalar of an exact run of K steps.

    ``G`` holds g_0 .. g_K, so ``G[-1]`` is the gradient the run stopped
    at; ``D`` and ``AD`` hold d_k and A d_k for k < K.  ``alpha[k]`` is the
    exact-line-search stepsize -g_k.d_k / d_k.A d_k and
    ``alpha_orthogonal[k]`` the orthogonality stepsize -g_k.g_k / g_k.A d_k.
    ``betas[rule][k - 1]`` is the coupling of step k >= 1 by ``rule``.
    """

    G: list[list[Fraction]]
    D: list[list[Fraction]]
    AD: list[list[Fraction]]
    alpha: list[Fraction]
    alpha_orthogonal: list[Fraction]
    betas: dict[str, list[Fraction]]

    @property
    def steps(self) -> int:
        return len(self.D)

    @property
    def terminated(self) -> bool:
        return not any(self.G[-1])


def _couplings(g, g_prev, d_prev) -> dict[str, Fraction]:
    """FR, HS, PRP and DY of step k from g_k, g_{k-1} and d_{k-1}."""
    y = [p - q for p, q in zip(g, g_prev)]
    gg, pp = dot(g, g), dot(g_prev, g_prev)
    gy, dy = dot(g, y), dot(d_prev, y)
    return {"fr": gg / pp, "hs": gy / dy, "prp": gy / pp, "dy": gg / dy}


def exact_cg(a, b) -> ExactRun:
    a = [[Fraction(v) for v in row] for row in a]
    n = len(a)
    g = [Fraction(v) for v in b]
    G, D, AD, alpha, alpha_orth = [g], [], [], [], []
    betas = {rule: [] for rule in BETA_RULES}
    d = [-v for v in g]
    while any(g) and len(D) < n:
        if D:
            for rule, value in _couplings(g, G[-2], D[-1]).items():
                betas[rule].append(value)
            d = _axpy(betas["fr"][-1], D[-1], [-v for v in g])
        ad = matvec(a, d)
        step = -dot(g, d) / dot(d, ad)
        alpha_orth.append(-dot(g, g) / dot(g, ad))
        D.append(d)
        AD.append(ad)
        alpha.append(step)
        g = _axpy(step, ad, g)
        G.append(g)
    return ExactRun(G, D, AD, alpha, alpha_orth, betas)
