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

__all__ = [
    "GronwallInput",
    "GronwallVerdict",
    "GronwallDivergence",
    "gronwall_constant",
    "gronwall_bound_iterative",
    "verify_on_process",
]


class GronwallDivergence(RuntimeError):
    """Recursion failed to stabilize within the iteration cap."""


@dataclass(frozen=True)
class GronwallInput:
    a: float
    b: float
    alpha: float
    beta: float
    horizon: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("a and b must be nonnegative")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be finite and positive")


@dataclass(frozen=True)
class GronwallVerdict:
    hypothesis_ok: bool
    holds: bool
    worst_margin: float
    constant: float


def gronwall_constant(params: GronwallInput) -> float:
    """The envelope constant M.

    beta = 1: closed form 1 + b e^(bT) T / (1 - alpha).  beta != 1: delegates to
    the iterated recursion and returns sup_t of limit(t) (T-t)^alpha / a over a
    grid that stays 1e-3 T away from the singular endpoint.
    """
    if params.beta == 1.0:
        return 1.0 + params.b * math.exp(params.b * params.horizon) * params.horizon / (
            1.0 - params.alpha
        )
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


# ---------------------------------------------------------------------------
# verification harness


def verify_on_process(
    times: np.ndarray,
    values: np.ndarray,
    params: GronwallInput,
    hypothesis_rtol: float = 1e-9,
) -> GronwallVerdict:
    """Check the envelope U_t <= a M (T-t)^(-alpha) for a grid process.

    ``values`` has shape (L+1,) or (L+1, paths); multi-path input is reduced to
    its pathwise maximum (the deterministic envelope).  The hypothesis
    inequality is checked first on the grid; without it the conclusion carries
    no verdict and ``holds`` is reported False with hypothesis_ok False.
    The final node is skipped when alpha > 0 (the bound is infinite there).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values.max(axis=1)
    if values.shape != times.shape:
        raise ValueError("values must carry one entry per grid node")
    T = params.horizon
    if abs(times[-1] - T) > 1e-12 * max(T, 1.0):
        raise ValueError("grid must end at the horizon")
    glx, glw = np.polynomial.legendre.leggauss(32)
    glx = 0.5 * (glx + 1.0)
    glw = 0.5 * glw
    scale = max(params.a, float(values.max()), 1e-300)
    hypothesis_ok = True
    for i, ti in enumerate(times[:-1]):
        u_hi = (T - ti) ** params.beta
        u = glx * u_hi
        s = ti + u ** (1.0 / params.beta)
        integral = u_hi * np.sum(glw * np.interp(s, times, values)) / params.beta
        bound = params.a * (T - ti) ** (-params.alpha) + params.b * integral
        if values[i] > bound * (1.0 + hypothesis_rtol) + hypothesis_rtol * scale:
            hypothesis_ok = False
            break
    constant = gronwall_constant(params)
    if not hypothesis_ok:
        return GronwallVerdict(False, False, math.nan, constant)
    upper = times.size - 1 if params.alpha > 0 else times.size
    with np.errstate(divide="ignore"):
        envelope = params.a * constant * (T - times[:upper]) ** (-params.alpha)
    margins = envelope - values[:upper]
    worst = float(margins.min())
    return GronwallVerdict(True, bool(worst >= -hypothesis_rtol * scale), worst, constant)
