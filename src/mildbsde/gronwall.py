"""Generalized Gronwall bound with a singular terminal weight.

For nonnegative constants a, b, alpha < 1, beta > 0 and a process satisfying

    U_t <= a (T-t)^(-alpha) + b * int_t^T (s-t)^(beta-1) U_s ds

the conclusion is U_t <= a M (T-t)^(-alpha).  For beta = 1 the constant is
closed form, M = 1 + b e^(bT) T / (1 - alpha).  For beta != 1 the module
iterates the defining recursion to its (monotone) limit on a quadrature grid
and reads the constant off numerically instead of inventing a closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .solver import SolverError, ValidationError, _check_number

__all__ = [
    "GronwallInput",
    "GronwallDivergence",
    "gronwall_constant",
    "gronwall_bound_iterative",
]


class GronwallDivergence(SolverError):
    """Recursion failed to stabilize within the iteration cap."""


@dataclass(frozen=True)
class GronwallInput:
    a: float
    b: float
    alpha: float
    beta: float
    horizon: float

    def __post_init__(self):
        for key in ("a", "b", "alpha", "beta", "horizon"):
            _check_number("gronwall", key, getattr(self, key), False, 0)
        if not self.alpha < 1.0:
            raise ValidationError("gronwall", "alpha must lie in [0, 1)")
        if self.beta == 0 or self.horizon == 0:
            raise ValidationError("gronwall", "beta and horizon must be positive")


def gronwall_constant(params: GronwallInput) -> float:
    """The envelope constant M.

    beta = 1: closed form 1 + b e^(bT) T / (1 - alpha).  beta != 1: delegates to
    the iterated recursion and returns sup_t of limit(t) (T-t)^alpha / a over a
    grid that stays 1e-3 T away from the singular endpoint.
    """
    if params.beta == 1.0:
        try:
            growth = math.exp(params.b * params.horizon)
        except OverflowError:
            raise GronwallDivergence(f"e^(bT) overflowed (b T = {params.b * params.horizon:g})")
        return 1.0 + params.b * growth * params.horizon / (1.0 - params.alpha)
    if params.a == 0.0:
        return 1.0
    t, w = _solve_recursion(params)
    cutoff = params.horizon * (1.0 - 1e-3)
    keep = t <= cutoff
    return float(w[keep].max()) / params.a


def gronwall_bound_iterative(params: GronwallInput, t: float, iterations: int = 200) -> float:
    """Value at t of the iterated recursion limit; t must lie strictly below T."""
    if not 0.0 <= t < params.horizon:
        raise ValueError("t must lie in [0, T)")
    grid, w = _solve_recursion(params, iterations=iterations)
    wt = float(np.interp(t, grid, w))
    return wt * (params.horizon - t) ** (-params.alpha)


# ---------------------------------------------------------------------------
# recursion machinery


@lru_cache(maxsize=64)
def _solve_recursion_cached(a, b, alpha, beta, horizon, iterations, nodes):
    t = np.linspace(0.0, horizon, nodes)
    w = np.full(nodes, a)  # w(t) = V(t) (T-t)^alpha, so V^0 gives w = a
    if b == 0.0 or a == 0.0:
        return t, w if a > 0 else np.zeros(nodes)
    glx, glw = np.polynomial.legendre.leggauss(32)
    glx = 0.5 * (glx + 1.0)  # nodes on [0, 1]
    glw = 0.5 * glw
    for k in range(iterations):
        prev = w
        w = a + b * _weighted_integral(t, prev, alpha, beta, horizon, glx, glw)
        if not np.all(np.isfinite(w)):
            raise GronwallDivergence(
                f"recursion overflowed after {k + 1} iterations (b T^beta too large)"
            )
        change = np.max(np.abs(w - prev)) / max(np.max(np.abs(w)), 1e-300)
        if change < 1e-12:
            return t, w
    raise GronwallDivergence(
        f"no stabilization within {iterations} iterations; last relative change {change:.3e}"
    )


def _solve_recursion(params: GronwallInput, iterations: int = 200, nodes: int = 257):
    return _solve_recursion_cached(
        params.a, params.b, params.alpha, params.beta, params.horizon, iterations, nodes
    )


def _weighted_integral(t, w, alpha, beta, horizon, glx, glw):
    """(T-t)^alpha int_t^T (s-t)^(beta-1) (T-s)^(-alpha) w(s) ds for every node t.

    The interval is split at its midpoint.  On the left half the substitution
    s = t + u^(1/beta) absorbs the (s-t)^(beta-1) endpoint weight; on the right
    half s = T - v^(1/(1-alpha)) absorbs (T-s)^(-alpha).  w is interpolated
    linearly between nodes; both transformed integrands are bounded.
    """
    out = np.zeros_like(t)
    T = horizon
    for i, ti in enumerate(t[:-1]):
        mid = 0.5 * (ti + T)
        # left piece [t, mid]
        u_hi = (mid - ti) ** beta
        u = glx * u_hi
        s = ti + u ** (1.0 / beta)
        integrand = np.interp(s, t, w) * (T - s) ** (-alpha)
        left = u_hi * np.sum(glw * integrand) / beta
        # right piece [mid, T]
        v_hi = (T - mid) ** (1.0 - alpha)
        v = glx * v_hi
        s = T - v ** (1.0 / (1.0 - alpha))
        integrand = (s - ti) ** (beta - 1.0) * np.interp(s, t, w)
        right = v_hi * np.sum(glw * integrand) / (1.0 - alpha)
        out[i] = (T - ti) ** alpha * (left + right)
    out[-1] = 0.0  # integral over an empty interval; w(T) = a handled by caller
    return out
