"""Diagonal dissipative operators: semigroups, interpolation norms, convolutions.

The state space is R^N, a truncation of a separable Hilbert space to N basis
coordinates. An operator acts diagonally, x_n -> -a_n * x_n with a_n >= 0, so
the analytic semigroup, its fractional-smoothing constants and the real
interpolation norms

    ||x||_(alpha,inf) = |x|_H + sup_{0 < t <= 1} t^(1-alpha) |A exp(tA) x|_H

are all computable in closed form per coordinate.  Constants that the solver
needs but that have no closed form for a general spectrum (the operator norms
M_alpha and C_alpha and the Hoelder constant of the semigroup convolution)
are estimated empirically by sampling and grid maximization; see
``estimate_constants``.  ``smoothing_bound_check`` and
``estimate_interp_constant`` estimate theirs the same way, for the
``smoothing-bound`` and ``interpolation-inequality`` entries of ``models.CHECKS``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DiagonalOperator",
    "EmpiricalConstants",
    "semigroup_apply",
    "h_alpha_norm_batch",
    "h_alpha_norm_bound",
    "smoothing_bound_check",
    "estimate_interp_constant",
    "convolve_on_grid",
    "estimate_constants",
    "dirichlet_laplacian_eigenvalues",
]


@dataclass
class DiagonalOperator:
    """Dissipative operator given by its nonnegative spectrum on R^N.

    ``eigenvalues[n] = a_n`` means the operator maps e_n to -a_n e_n, so
    <Ay, y> = -sum a_n y_n^2 <= 0 and exp(tA) is a contraction for t >= 0.
    """

    eigenvalues: np.ndarray
    _norm_grids: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float).ravel()
        if self.eigenvalues.size == 0:
            raise ValueError("operator needs at least one eigenvalue")
        if np.any(self.eigenvalues < 0) or not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("eigenvalues must be finite and nonnegative (dissipativity)")

    @property
    def dimension(self) -> int:
        return int(self.eigenvalues.size)

    def _check_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise ValueError(
                f"state dimension {x.shape[-1]} does not match operator dimension {self.dimension}"
            )
        return x

    def norm_grid(self, alpha: float) -> "_SeminormGrid":
        """Calibrated t-grid evaluator for the (alpha, inf) seminorm, cached per alpha."""
        key = round(float(alpha), 12)
        grid = self._norm_grids.get(key)
        if grid is None:
            grid = _SeminormGrid(self, alpha)
            self._norm_grids[key] = grid
        return grid


def semigroup_apply(op: DiagonalOperator, t: float, x: np.ndarray) -> np.ndarray:
    """Apply exp(tA) componentwise: (exp(tA) x)_n = exp(-a_n t) x_n.

    Broadcasts over leading axes of ``x``; the last axis is the state.
    """
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    x = op._check_state(x)
    if t == 0:
        return x.copy()
    return np.exp(-op.eigenvalues * t) * x


# ---------------------------------------------------------------------------
# interpolation norms


def _seminorm_values(op: DiagonalOperator, alpha: float, t: np.ndarray) -> np.ndarray:
    """Weights w[t, n] = t^(1-alpha) a_n exp(-a_n t), shape (len(t), N)."""
    return t[:, None] ** (1.0 - alpha) * op.eigenvalues[None, :] * np.exp(
        -np.outer(t, op.eigenvalues)
    )


def _eigen_seminorm_exact(a: float, alpha: float) -> float:
    """Closed-form sup over (0,1] of t^(1-alpha) a exp(-a t) for one eigenvalue."""
    if a == 0.0:
        return 0.0
    t_star = (1.0 - alpha) / a
    if t_star >= 1.0:
        return a * math.exp(-a)
    return t_star ** (1.0 - alpha) * a * math.exp(-a * t_star)


def _grid_lo(op: DiagonalOperator, alpha: float) -> float:
    active = op.eigenvalues[op.eigenvalues > 0]
    if active.size == 0:
        return 1.0 / 16.0
    return min((1.0 - alpha) / active.max() / 16.0, 1.0 / 16.0)


# rows per block of the fine stage; the (rows, 2s+1, N) window slab stays in cache
_ROW_BLOCK = 1024


class _SeminormGrid:
    """Geometric t-grid for batched (alpha, inf) seminorms.

    The grid is refined at construction until, for every eigenvector, the grid
    maximum of t^(1-alpha) a exp(-a t) matches the analytic maximizer value to
    a relative 1e-5.  Eigenvectors are the extreme inputs, so this calibration
    bounds the grid error for arbitrary states.  Batched evaluation runs in
    two stages (coarse argmax in log t, then the fine grid near it), which is
    accurate because every component's profile is order-one wide in log t.

    The fine stage reads a window table built here: ``windows[c]`` holds the
    squared weights at the 2 * stride + 1 grid points around coarse point c,
    clipped at the grid ends, so each state gathers one row of it by its
    coarse argmax.  The grid starts at 1025 points and only doubles, so the
    stride is at least 8.

    ``bound_weights`` (N, 2) holds ones and each component's largest squared
    weight over the fine grid, so one product x^2 @ bound_weights gives |x|_H^2
    and, as max_p sum_n x_n^2 W[p, n] <= sum_n x_n^2 max_p W[p, n], a seminorm cap.
    """

    def __init__(self, op: DiagonalOperator, alpha: float, rel_tol: float = 1e-5):
        if not 0.0 < alpha < 1.0:
            raise ValueError("seminorm grid needs alpha in (0, 1)")
        exact = np.array([_eigen_seminorm_exact(a, alpha) for a in op.eigenvalues])
        t_lo, n_points = _grid_lo(op, alpha), 1025
        while True:
            t = np.geomspace(t_lo, 1.0, n_points)
            w = _seminorm_values(op, alpha, t)
            grid_max = w.max(axis=0)
            ok = grid_max >= (1.0 - rel_tol) * exact
            if np.all(ok) or n_points >= 1 << 13:
                break
            n_points = 2 * (n_points - 1) + 1
            t_lo /= 2.0
        self.t = t
        w_sq = w ** 2  # (P, N)
        stride = (n_points - 1) // 128
        coarse_idx = np.arange(0, n_points, stride)
        self.w_sq_coarse = w_sq[coarse_idx]  # (C, N)
        offsets = np.arange(-stride, stride + 1)
        # (C, 2s+1, N)
        self.windows = w_sq[np.clip(coarse_idx[:, None] + offsets, 0, n_points - 1)]
        self.bound_weights = np.stack([np.ones(w_sq.shape[1]), w_sq.max(axis=0)], axis=1)

    def seminorm(self, x: np.ndarray) -> np.ndarray:
        """Seminorm of a batch of states; x has shape (..., N)."""
        shape = x.shape[:-1]
        x_sq = np.square(x).reshape(-1, x.shape[-1])
        out = np.empty(x_sq.shape[0])
        for lo in range(0, x_sq.shape[0], _ROW_BLOCK):
            block = x_sq[lo : lo + _ROW_BLOCK]
            coarse = block @ self.w_sq_coarse.T  # (b, C)
            local = self.windows[np.argmax(coarse, axis=-1)]  # (b, 2s+1, N)
            out[lo : lo + _ROW_BLOCK] = np.einsum("bn,bpn->bp", block, local).max(axis=-1)
        return np.sqrt(out.reshape(shape))


def h_alpha_norm_batch(op: DiagonalOperator, alpha: float, x: np.ndarray) -> np.ndarray:
    """Full interpolation norm |x|_H + [x]_alpha for a batch; the H norm when alpha = 0."""
    x = op._check_state(x)
    h = np.linalg.norm(x, axis=-1)
    if alpha == 0.0:
        return h
    return h + op.norm_grid(alpha).seminorm(x)


def h_alpha_norm_bound(op: DiagonalOperator, alpha: float, x: np.ndarray) -> np.ndarray:
    """Cheap upper bound of ``h_alpha_norm_batch`` from one product with x^2:
    sqrt(x^2 . 1) + sqrt(x^2 . max_t w^2), the first term alone for alpha = 0.
    It is at least the norm up to rounding (a relative N * eps: the H norm's
    squares are summed in another order), and tight for eigenvectors."""
    x = op._check_state(x)
    if alpha == 0.0:
        return np.sqrt(np.square(x) @ np.ones(x.shape[-1]))
    roots = np.sqrt(np.square(x) @ op.norm_grid(alpha).bound_weights)
    return roots[..., 0] + roots[..., 1]


# ---------------------------------------------------------------------------
# quantitative semigroup checks


def _unit_probes(op: DiagonalOperator, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Random Gaussian states plus all eigenvectors, rows of shape (S, N)."""
    n = op.dimension
    probes = [np.eye(n)]
    if trials > 0:
        probes.append(rng.standard_normal((trials, n)))
        decay = 1.0 / (1.0 + op.eigenvalues)
        probes.append(rng.standard_normal((trials, n)) * decay)
    return np.concatenate(probes, axis=0)


def smoothing_bound_check(
    op: DiagonalOperator,
    alpha: float,
    beta: float,
    trials: int = 256,
    rng: np.random.Generator | int | None = None,
    t_points: int = 128,
) -> float:
    """Empirical constant C with t^(beta-alpha) ||exp(tA)||_(alpha->beta) <= C on (0,1].

    Maximizes t^(beta-alpha) * ||exp(tA) x||_(beta,inf) over a geometric t-grid
    and over random states of unit (alpha, inf) norm (H norm when alpha = 0).
    """
    if not (0.0 <= alpha <= beta < 1.0):
        raise ValueError("need 0 <= alpha <= beta < 1")
    if beta == 0.0:
        raise ValueError("beta must be positive")
    rng = np.random.default_rng(rng)
    x = _unit_probes(op, trials, rng)
    norms_a = h_alpha_norm_batch(op, alpha, x)
    keep = norms_a > 0
    x = x[keep] / norms_a[keep][:, None]
    t_grid = np.geomspace(1e-4, 1.0, t_points)
    best = 0.0
    for t in t_grid:
        y = semigroup_apply(op, t, x)
        norms_b = h_alpha_norm_batch(op, beta, y)
        best = max(best, float((t ** (beta - alpha) * norms_b).max()))
    return best


def estimate_interp_constant(
    op: DiagonalOperator,
    alpha: float,
    theta: float,
    trials: int = 1024,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Sample maximum of the interpolation-inequality ratio (the constant c)."""
    rng = np.random.default_rng(rng)
    x = _unit_probes(op, trials, rng)
    lhs = h_alpha_norm_batch(op, alpha, x)
    frac = alpha / theta
    rhs = h_alpha_norm_batch(op, theta, x) ** frac * np.linalg.norm(x, axis=-1) ** (1.0 - frac)
    good = rhs > 0
    return float((lhs[good] / rhs[good]).max())


# ---------------------------------------------------------------------------
# semigroup convolution v(t) = int_t^T exp((s-t)A) phi(s) ds


def _step_factors(op: DiagonalOperator, deltas: np.ndarray):
    """Per-step decay E_l = exp(-a dt_l) and exact integrals I_l = (1 - E_l)/a.

    I_l is the componentwise integral of exp(-a s) over one step, with the
    a = 0 limit dt_l.  Shapes (L, N).
    """
    a = op.eigenvalues
    e = np.exp(-np.outer(deltas, a))
    with np.errstate(divide="ignore", invalid="ignore"):
        i = np.where(a[None, :] > 0, (1.0 - e) / a[None, :], deltas[:, None])
    return e, i


def convolve_on_grid(op: DiagonalOperator, times: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """All node values of v(t) = int_t^T exp((s-t)A) phi(s) ds on one pass.

    ``phi[l]`` is the value of the integrand on [times[l], times[l+1]); the
    piecewise-constant interpolant is integrated exactly against the diagonal
    exponential kernel.  Returns values at every node, v[-1] = 0 exactly.
    Accepts phi of shape (L, ..., N) or (L+1, ..., N) (the final slice is then
    ignored, since no interval lies to its right).
    """
    times = np.asarray(times, dtype=float)
    n_steps = times.size - 1
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] == n_steps + 1:
        phi = phi[:-1]
    if phi.shape[0] != n_steps:
        raise ValueError("phi must carry one value per grid interval")
    e, i = _step_factors(op, np.diff(times))
    out = np.zeros((n_steps + 1,) + phi.shape[1:])
    for l in range(n_steps - 1, -1, -1):
        out[l] = i[l] * phi[l] + e[l] * out[l + 1]
    return out


# ---------------------------------------------------------------------------
# empirical constants feeding the window selection


@dataclass(frozen=True)
class EmpiricalConstants:
    """Sampled operator constants, estimated once per solve and recorded.

    m_alpha   sup_{0<=t<=T} of the semigroup operator norm on the alpha space
    c_alpha   sup_{0<t<=1} t^alpha ||exp(tA)||_(H -> alpha space)
    g_holder  Hoelder-norm constant of the semigroup convolution
    """

    alpha: float
    horizon: float
    m_alpha: float
    c_alpha: float
    g_holder: float
    margin: float = 1.0

    def scaled(self, margin: float) -> "EmpiricalConstants":
        """Inflate the constants that enter window-length formulas by a safety factor."""
        return EmpiricalConstants(
            alpha=self.alpha,
            horizon=self.horizon,
            m_alpha=self.m_alpha * margin,
            c_alpha=self.c_alpha * margin,
            g_holder=self.g_holder * margin,
            margin=self.margin * margin,
        )


def estimate_m_alpha(
    op: DiagonalOperator,
    alpha: float,
    horizon: float,
    trials: int = 128,
    rng: np.random.Generator | int | None = None,
    t_points: int = 48,
) -> float:
    """Sample sup over t in [0, T] of ||exp(tA) x||_alpha / ||x||_alpha."""
    rng = np.random.default_rng(rng)
    x = _unit_probes(op, trials, rng)
    base = h_alpha_norm_batch(op, alpha, x)
    keep = base > 0
    x, base = x[keep], base[keep]
    best = 1.0  # t = 0 gives ratio 1 exactly
    for t in np.linspace(0.0, horizon, t_points)[1:]:
        best = max(best, float((h_alpha_norm_batch(op, alpha, semigroup_apply(op, t, x)) / base).max()))
    return best


def estimate_c_alpha(
    op: DiagonalOperator,
    alpha: float,
    trials: int = 256,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Sample sup of t^alpha ||exp(tA) x||_(alpha,inf) over unit-H states, t in (0,1]."""
    if alpha == 0.0:
        return 1.0  # contraction on H
    return smoothing_bound_check(op, 0.0, alpha, trials=trials, rng=rng)


def estimate_g_holder(
    op: DiagonalOperator,
    alpha: float,
    horizon: float,
    samples: int = 32,
    grid_sizes: Sequence[int] = (33, 65, 129),
    rng: np.random.Generator | int | None = None,
) -> float:
    """Empirical constant G with ||v||_{C^(1-alpha)([a,T]; alpha space)} <= G sup|phi|_H.

    Draws rough piecewise-constant integrands (Gaussian, sign patterns, spikes),
    convolves them exactly, and maximizes the Hoelder quotient plus sup norm of
    v over dyadic node pairs.  Grid refinement keeps the estimate stable.
    """
    rng = np.random.default_rng(rng)
    span = min(1.0, horizon)
    n = op.dimension
    best = 0.0
    for size in grid_sizes:
        times = np.linspace(0.0, span, size)
        steps = size - 1
        phis = [rng.standard_normal((steps, samples, n))]
        phis.append(rng.choice([-1.0, 1.0], size=(steps, samples, n)))
        spikes = np.zeros((steps, samples, n))
        idx = rng.integers(0, steps, size=samples)
        comp = rng.integers(0, n, size=samples)
        spikes[idx, np.arange(samples), comp] = 1.0
        phis.append(spikes)
        phi = np.concatenate(phis, axis=1)  # (steps, 3*samples, n)
        v = convolve_on_grid(op, times, phi)  # (size, S, n)
        sup_phi = np.abs(np.linalg.norm(phi, axis=-1)).max(axis=0)
        sup_v = h_alpha_norm_batch(op, alpha, v).max(axis=0)
        # dyadic index pairs plus every pair against the final node (v(T) = 0)
        pairs = []
        gap = 1
        while gap < size:
            i = np.arange(0, size - gap)
            pairs.append(np.stack([i, i + gap], axis=1))
            gap *= 2
        i = np.arange(0, size - 1)
        pairs.append(np.stack([i, np.full_like(i, size - 1)], axis=1))
        pairs = np.unique(np.concatenate(pairs, axis=0), axis=0)
        diffs = v[pairs[:, 1]] - v[pairs[:, 0]]  # (P, S, n)
        dt = (times[pairs[:, 1]] - times[pairs[:, 0]]) ** (1.0 - alpha)
        quot = (h_alpha_norm_batch(op, alpha, diffs) / dt[:, None]).max(axis=0)
        ratios = (sup_v + quot) / sup_phi
        best = max(best, float(ratios.max()))
    return best


def estimate_constants(
    op: DiagonalOperator,
    alpha: float,
    horizon: float,
    rng: np.random.Generator | int | None = None,
    trials: int = 256,
) -> EmpiricalConstants:
    """Estimate every operator constant the window selection needs, unscaled."""
    rng = np.random.default_rng(rng)
    m_alpha = estimate_m_alpha(op, alpha, horizon, trials=trials // 2, rng=rng)
    c_alpha = estimate_c_alpha(op, alpha, trials=trials, rng=rng)
    g_holder = estimate_g_holder(op, alpha, horizon, rng=rng)
    return EmpiricalConstants(
        alpha=float(alpha),
        horizon=float(horizon),
        m_alpha=m_alpha,
        c_alpha=c_alpha,
        g_holder=g_holder,
    )


# ---------------------------------------------------------------------------
# construction helpers


def dirichlet_laplacian_eigenvalues(n: int, length: float = math.pi) -> np.ndarray:
    """First n eigenvalues (m pi / length)^2 of -d^2/dx^2 with zero boundary values."""
    if n < 1:
        raise ValueError("need at least one mode")
    m = np.arange(1, n + 1, dtype=float)
    return (m * math.pi / length) ** 2

