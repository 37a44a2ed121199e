"""Reference oracles that the tests check the library against.

``interpolation_norm`` maximizes the (alpha, inf) seminorm of one state on a
doubling geometric grid, independently of the calibrated batch kernel.
``verify_on_process`` checks a solved process against the Gronwall envelope.
``martingale_z_reference`` is the Z estimate with its targets formed path by
path.  ``kept_solve`` collects Y and Z on all paths from ``general_solve``'s
node exit, and ``drop_node`` is the sink of a solve read only through its
report.  None is on the solve path, so they live here and not in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mildbsde.gronwall import GronwallInput, gronwall_constant
from mildbsde.solver import BsdeProblem, SolverReport, general_solve
from mildbsde.spectral import DiagonalOperator, _grid_lo, _seminorm_values
from mildbsde.wiener import (
    Regression, RegressionBasis, TimeGrid, WienerEnsemble, conditional_expectation,
)


@dataclass(frozen=True)
class AlphaNorm:
    """Interpolation norm split into its two summands: value = |x|_H + seminorm."""

    alpha: float
    value: float
    seminorm: float


def interpolation_norm(op: DiagonalOperator, alpha: float, x: np.ndarray) -> AlphaNorm:
    """Norm of x in the real interpolation space (alpha, inf).

    The seminorm is sup_{0 < t <= 1} t^(1-alpha) |A exp(tA) x|_H, maximized on
    a geometric t-grid of 512 points that is refined by doubling until the
    supremum is stable to a relative 1e-6.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x = op._check_state(x)
    if x.ndim != 1:
        raise ValueError("interpolation_norm expects a single state vector")
    h_norm = float(np.linalg.norm(x))
    t_lo, n_points = _grid_lo(op, alpha), 512
    prev = None
    while True:
        t = np.geomspace(t_lo, 1.0, n_points)
        w = _seminorm_values(op, alpha, t)
        semi = float(np.sqrt((np.square(x) @ (w ** 2).T).max()))
        if prev is not None and abs(semi - prev) <= 1e-6 * max(semi, 1e-300):
            break
        if n_points >= 1 << 16:
            break
        prev = semi
        n_points *= 2
        t_lo /= 2.0
    return AlphaNorm(alpha=float(alpha), value=h_norm + semi, seminorm=semi)


@dataclass(frozen=True)
class GronwallVerdict:
    hypothesis_ok: bool
    holds: bool
    worst_margin: float
    constant: float


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


def martingale_z_reference(
    ensemble: WienerEnsemble, basis: RegressionBasis, t_index: int, next_value: np.ndarray
) -> Regression:
    """``martingale_z_estimate`` with its (M, N K) targets formed path-major:
    centered (x) dW / dt by broadcasting over the (M, N, K) axes."""
    m = next_value.shape[0]
    dw = ensemble.increments[t_index]
    dt = float(ensemble.grid.deltas[t_index])
    centered = next_value - conditional_expectation(ensemble, basis, t_index, next_value).fitted
    targets = (centered[:, :, None] * dw[:, None, :] / dt).reshape(m, -1)
    return conditional_expectation(ensemble, basis, t_index, targets)


@dataclass(frozen=True)
class KeptSolution:
    """Y at every node and Z on the left node of each step, on all paths."""

    grid: TimeGrid
    y: np.ndarray  # (L+1, M, N)
    z: np.ndarray  # (L, M, N, K)


def kept_solve(
    problem: BsdeProblem, ensemble: WienerEnsemble, basis: RegressionBasis, **kw
) -> tuple[KeptSolution, SolverReport]:
    """``general_solve`` with a sink that copies each node in, Y allocated at
    node L and Z at node L-1.  The grid is the ensemble's, or the uniform grid
    of the solve's L steps when it refined."""
    kept = {}

    def collect(l, y_l, z_l, fit):
        if z_l is None:  # node L, the first to leave
            kept["y"] = np.empty((l + 1,) + y_l.shape)
        elif "z" not in kept:  # node L-1, the first with a Z
            kept["z"] = np.empty((l + 1,) + z_l.shape)
        kept["y"][l] = y_l
        if z_l is not None:
            kept["z"][l] = z_l

    report = general_solve(problem, ensemble, basis, collect, **kw)
    grid = ensemble.grid
    if grid.n_steps != len(kept["y"]) - 1:
        grid = TimeGrid.uniform(grid.horizon, len(kept["y"]) - 1)
    return KeptSolution(grid, kept["y"], kept["z"]), report


def drop_node(l, y_l, z_l, fit) -> None:
    """A ``general_solve`` sink that drops each node."""
