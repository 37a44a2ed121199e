"""Mild-form backward SDE solver on a truncated Hilbert space.

The solved object is the integral equation

    Y_t - int_t^T exp((s-t)A) [f0(s, Y_s) + f1(s, Y_s, Z_s)] ds
        + int_t^T exp((s-t)A) Z_s dW_s  =  exp((T-t)A) xi

with A diagonal dissipative, f0 dissipative with polynomial growth on the
alpha interpolation space, and f1 bounded Lipschitz.  The construction mirrors
the analytic existence proof so that its quantitative ingredients can be
measured.  It has three layers:

* ``local_solve``: a Picard iteration on one window whose length comes from
  the operator constants (contraction factor 1/2 in theory),
* ``global_solve``: right-to-left pasting of windows for one frozen driver
  path.  It selects every window: the first from the terminal bound, the
  later ones with the radius of the invariant ball supplied by a fitted
  blow-up envelope.  A helper thread fits Z on each converged window while
  the next one iterates, and takes half of each per-node batch it finds idle,
* ``general_solve``: the only solve driver.  It applies the exponential change
  of variables removing a positive monotonicity constant from f0, estimates
  the operator constants, refines the grid when a window is shorter than one
  step, and runs the outer fixed point for the (y, z)-coupled driver,
  contracting in an exp(beta t)-weighted norm with beta = 4 K^2 + 1.

Bochner integrals against the semigroup are exact per component for the
piecewise-constant interpolant of the integrand, so no singular quadrature is
ever needed.  Conditional expectations are least-squares regressions from
``mildbsde.wiener``; given (problem, ensemble, basis) every map here is
deterministic, and Picard distances therefore decay to zero without a Monte
Carlo noise floor.
"""
from __future__ import annotations

import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from decimal import Decimal
from typing import Callable

import numpy as np

from .spectral import (
    DiagonalOperator,
    EmpiricalConstants,
    estimate_constants,
    h_alpha_norm_batch,
    h_alpha_norm_bound,
    _step_factors,
)
from .wiener import (
    Regression,
    RegressionBasis,
    TimeGrid,
    WienerEnsemble,
    _fit,
    ensemble_nbytes,
    martingale_z_estimate,
    sample_ensemble,
)

__all__ = [
    "DissipativeDrift",
    "BoundedDriver",
    "BsdeProblem",
    "SolverReport",
    "WindowSelection",
    "SolvePlan",
    "SolverError",
    "ValidationError",
    "WindowCollapse",
    "PicardDivergence",
    "OuterDivergence",
    "GridTooCoarse",
    "NonFiniteDrift",
    "zero_drift",
    "exponential_shift",
    "apriori_h_bound",
    "select_local_radius_and_delta",
    "local_solve",
    "global_solve",
    "plan_solve",
    "general_solve",
    "residual",
]

# draws of the empirical operator constants, once per solve
_CONSTANTS_TRIALS = 192
# the sampled constants are lower estimates of suprema; this inflates them
_SAFETY_MARGIN = 1.2
# outer steps allowed; the weighted map contracts by 1/2, so only divergence reaches it
_MAX_OUTER = 25


class ValidationError(ValueError):
    """Outside input or a declared hypothesis breaks its rule; names the failing check."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def _check_number(check: str, key: str, value, integer: bool, least: float):
    """Return ``value`` if it is a finite number of at least ``least`` (an integer
    if ``integer``); otherwise raise a ``ValidationError(check, ...)`` naming ``key``."""
    # where a float is meant, an int too large for a float is not finite
    kinds, top = (numbers.Integral, math.inf) if integer else (numbers.Real, sys.float_info.max)
    if isinstance(value, bool) or not isinstance(value, kinds) or not least <= value <= top:
        what = f"a finite number of at least {least}"
        if integer:
            what = ("a positive" if least else "a nonnegative") + " integer"
        raise ValidationError(check, f"{key} must be {what}, got {value!r}")
    return value


class SolverError(RuntimeError):
    """A validated solve cannot finish."""


class WindowCollapse(SolverError):
    """The window-length formulas returned a nonpositive length."""


class PicardDivergence(SolverError):
    """Successive-iterate distances stopped contracting."""


class OuterDivergence(SolverError):
    """The weighted outer fixed point stopped contracting."""


class NonFiniteDrift(SolverError):
    """A drift evaluation returned NaN or Inf."""


class GridTooCoarse(SolverError):
    """A window is shorter than one grid step; ``factor`` refines the grid enough."""

    def __init__(self, message: str, factor: int = 2):
        super().__init__(message)
        self.factor = factor


# ---------------------------------------------------------------------------
# problem data


@dataclass
class DissipativeDrift:
    """Nonlinearity f0(t, y) defined on the alpha-space ball, with its constants.

    growth:      |f0(t,y)|_H <= growth_scale (1 + ||y||_alpha^growth_power)
    lipschitz:   |f0(t,y1)-f0(t,y2)|_H <= lipschitz(R) ||y1-y2||_alpha on the ball R
    monotonicity:<f0(t,y1)-f0(t,y2), y1-y2>_H <= monotonicity |y1-y2|_H^2
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    growth_scale: float
    growth_power: float
    monotonicity: float = 0.0
    lipschitz: Callable[[float], float] | float = 0.0

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.fn(t, y)

    def lipschitz_at(self, radius: float) -> float:
        if callable(self.lipschitz):
            return float(self.lipschitz(radius))
        return float(self.lipschitz)

    @property
    def is_zero(self) -> bool:
        return self.growth_scale == 0.0 and not callable(self.lipschitz) and self.lipschitz == 0.0


def zero_drift() -> DissipativeDrift:
    return DissipativeDrift(fn=lambda t, y: np.zeros_like(y), growth_scale=0.0, growth_power=2.0)


@dataclass
class BoundedDriver:
    """Driver f1(t, y, z), bounded by ``bound`` and Lipschitz in (y, z) with one constant."""

    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_const: float
    bound: float

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.fn(t, y, z)


@dataclass
class BsdeProblem:
    """Terminal data, drift pair, operator and exponents of one backward equation.

    ``terminal`` maps a Wiener ensemble to per-path terminal states (M, N) and
    must be measurable with respect to the full path; ``terminal_bound`` is the
    declared essential bound of its alpha norm (may be inf for test problems
    with Gaussian tails, must be positive when f0 grows).  ``terminal_bound_h``
    optionally sharpens the H-norm bound used by the a-priori estimate; it
    defaults to ``terminal_bound``.
    ``pair_sampler(op, alpha, radius, count, rng) -> (y1, y2)`` optionally
    draws the state pairs on which dissipativity is sampled, e.g. pairs that
    agree on the boundary sites of a lattice window; by default the pairs are
    independent draws from the ball.
    """

    operator: DiagonalOperator
    horizon: float
    alpha: float
    terminal: Callable[[WienerEnsemble], np.ndarray]
    terminal_bound: float
    f0: DissipativeDrift | None = None
    f1: BoundedDriver | None = None
    noise_dim: int = 1
    terminal_bound_h: float | None = None
    pair_sampler: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None
    validated: bool = False

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValidationError(
                "problem", f"horizon must be positive and finite, got {self.horizon!r}"
            )
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError("problem", "alpha must lie in [0, 1)")
        if self.f0 is None:
            self.f0 = zero_drift()
        if not self.terminal_bound >= 0.0:  # NaN fails too; inf is allowed
            raise ValidationError(
                "problem", f"terminal_bound must be nonnegative, got {self.terminal_bound!r}"
            )
        if self.f0.growth_power <= 1.0:
            raise ValidationError("problem", "growth power must exceed 1")
        if self.alpha > 0.0 and not self.f0.is_zero and self.f0.growth_power * self.alpha >= 1.0:
            raise ValidationError(
                "growth-exponent",
                f"need growth_power < 1/alpha (got {self.f0.growth_power} * {self.alpha} >= 1)",
            )
        if self.f0.growth_scale > 0.0 and not self.terminal_bound > 0.0:
            raise ValidationError(
                "terminal", f"a positive terminal bound is required, got {self.terminal_bound:g}: "
                "the window radius 2 M_alpha |xi| is then 0 and admits no window"
            )
        if self.terminal_bound_h is None:
            self.terminal_bound_h = self.terminal_bound

    @property
    def theta(self) -> float:
        """Blow-up space order alpha * gamma; degenerates to alpha without a drift."""
        if self.f0.is_zero:
            return self.alpha
        return self.alpha * self.f0.growth_power

    @property
    def driver_bound(self) -> float:
        return 0.0 if self.f1 is None else self.f1.bound

    @property
    def driver_lipschitz(self) -> float:
        return 0.0 if self.f1 is None else self.f1.lipschitz_const


@dataclass(frozen=True)
class WindowSelection:
    """Ball radius and window length from the local-existence formulas.

    delta_lip keeps the Picard map a 1/2-contraction, delta_ball keeps it
    inside the ball of radius 2 M_alpha ||terminal||; delta is their minimum.
    """

    radius: float
    delta: float
    delta_lip: float
    delta_ball: float


@dataclass
class WindowStats:
    start_index: int
    end_index: int
    radius: float
    iterations: int
    distances: list
    factors: list
    halvings: int = 0
    ball_clipped: int = 0
    rank_deficient: int = 0


@dataclass
class SolverReport:
    """Everything measured during a solve, for bound checks and reproduction."""

    alpha: float = 0.0
    theta: float = 0.0
    lambda_shift: float = 0.0
    seed: int = 0
    n_paths: int = 0
    n_steps: int = 0
    n_noise: int = 0
    constants: dict = field(default_factory=dict)
    selection: dict = field(default_factory=dict)
    selection_paste: dict = field(default_factory=dict)
    window_count_formula: int = 0
    grid_refined: int = 1
    windows: list = field(default_factory=list)
    picard_factors: list = field(default_factory=list)
    residual_value: float = math.nan
    c1_bound: float = math.nan
    max_y_h: float = math.nan
    c2_fit: float = math.nan
    blowup_margin: float = math.nan
    times: list = field(default_factory=list)
    mean_y_h: list = field(default_factory=list)
    max_y_h_per_node: list = field(default_factory=list)
    max_y_theta_per_node: list = field(default_factory=list)
    blowup_bound_per_node: list = field(default_factory=list)
    rank_deficient_count: int = 0
    outer: dict | None = None
    messages: list = field(default_factory=list)
    runtime_seconds: float = 0.0


# ---------------------------------------------------------------------------
# closed-form bounds


def apriori_h_bound(terminal_h_bound: float, s: float, c: float, horizon: float) -> float:
    """Uniform H-norm bound for the solved process (monotonicity constant 0).

    C_1 = sqrt((||xi||_H^2 + (S^2 + C^2) T) (1 + 2 T e^(2T))).
    """
    if min(terminal_h_bound, s, c, horizon) < 0:
        raise ValueError("inputs must be nonnegative")
    return math.sqrt(
        (terminal_h_bound ** 2 + (s ** 2 + c ** 2) * horizon)
        * (1.0 + 2.0 * horizon * math.exp(2.0 * horizon))
    )


# ---------------------------------------------------------------------------
# exponential change of variables


def exponential_shift(problem: BsdeProblem, lam: float) -> BsdeProblem:
    """Rescale the unknowns by exp(lam t), lam >= 0; lam equal to the monotonicity
    constant makes the shifted f0 dissipative with constant zero.

    The shifted data are terminal' = exp(lam T) xi, f0'(t, y) =
    exp(lam t) f0(t, exp(-lam t) y) - lam y and f1'(t, y, z) =
    exp(lam t) f1(t, exp(-lam t) y, exp(-lam t) z); the declared constants
    are transported by the factor exp(lam T), plus lam for f0's.
    """
    if lam < 0.0:
        raise ValueError(f"the shift needs lam >= 0, got {lam!r}")
    if lam == 0.0:
        return problem
    f0 = problem.f0
    outer_factor = math.exp(lam * problem.horizon)

    def shifted_f0(t, y, _f0=f0, _lam=lam):
        return math.exp(_lam * t) * _f0(t, math.exp(-_lam * t) * y) - _lam * y

    def shifted_lipschitz(radius, _f0=f0):
        return outer_factor * _f0.lipschitz_at(radius) + lam

    new_f0 = DissipativeDrift(
        fn=shifted_f0,
        growth_scale=f0.growth_scale * outer_factor + lam,
        growth_power=f0.growth_power,
        monotonicity=f0.monotonicity - lam,
        lipschitz=shifted_lipschitz,
    )
    new_f1 = None
    if problem.f1 is not None:
        f1 = problem.f1

        def shifted_f1(t, y, z, _f1=f1, _lam=lam):
            scale = math.exp(-_lam * t)
            return math.exp(_lam * t) * _f1(t, scale * y, scale * z)

        new_f1 = BoundedDriver(
            fn=shifted_f1,
            lipschitz_const=f1.lipschitz_const,
            bound=outer_factor * f1.bound,
        )
    return replace(
        problem,
        terminal=lambda ens, _t=problem.terminal: outer_factor * _t(ens),
        terminal_bound=problem.terminal_bound * outer_factor,
        terminal_bound_h=problem.terminal_bound_h * outer_factor,
        f0=new_f0,
        f1=new_f1,
    )


# ---------------------------------------------------------------------------
# window selection


def select_local_radius_and_delta(
    problem: BsdeProblem,
    terminal_bound: float,
    constants: EmpiricalConstants,
) -> WindowSelection:
    """Ball radius R = 2 M_alpha ||terminal|| and the admissible window length.

    delta_lip = (2 G L_R)^(-1/(1-alpha)) keeps the contraction constant at 1/2;
    delta_ball is the largest delta with
    C_alpha S ((1 + R^gamma) + C) / (1 - alpha) * delta^(1-alpha) <= R / 2.
    Safety enters through the inflated constants, not through the formulas.
    """
    f0 = problem.f0
    alpha = problem.alpha
    radius = 2.0 * constants.m_alpha * terminal_bound
    exponent = 1.0 / (1.0 - alpha)
    try:
        lip = f0.lipschitz_at(radius if math.isfinite(radius) else 1.0)
    except OverflowError:  # a huge finite radius, as for R^gamma below
        lip = math.inf
    if math.isinf(radius) and f0.growth_scale > 0.0:
        raise WindowCollapse("unbounded terminal with a nonzero drift: no window length works")
    gl = 2.0 * constants.g_holder * lip
    delta_lip = math.inf if gl <= 0 else gl ** (-exponent)
    s = f0.growth_scale
    if s > 0.0:
        try:
            power = radius ** f0.growth_power
        except OverflowError:  # a huge finite radius: no window keeps the drift in its ball
            power = math.inf
        denom = 2.0 * constants.c_alpha * s * ((1.0 + power) + problem.driver_bound)
        try:
            delta_ball = (radius * (1.0 - alpha) / denom) ** exponent
        except (ZeroDivisionError, OverflowError):  # the ball condition holds at every length
            delta_ball = math.inf
    else:
        delta_ball = math.inf
    delta = min(delta_lip, delta_ball)
    if not delta > 0 or math.isnan(delta):
        raise WindowCollapse(
            f"window length collapsed: radius={radius:g}, L_R={lip:g}, "
            f"G={constants.g_holder:g}, C_alpha={constants.c_alpha:g}"
        )
    return WindowSelection(radius=radius, delta=delta, delta_lip=delta_lip, delta_ball=delta_ball)


# ---------------------------------------------------------------------------
# Picard machinery


def _shared(helper: ThreadPoolExecutor | None, fn: Callable, nodes) -> list:
    """``[fn(node) for node in nodes]``, the later half of ``nodes`` offered to ``helper``
    (None: the plain loop).  This thread runs the earlier half, then takes the later half
    back unless ``helper`` has started it.  Each half keeps the order, so the first error in
    it is raised, this thread's first.  Both halves are done when this returns or raises."""
    nodes = list(nodes)
    cut = (len(nodes) + 1) // 2
    if helper is None or cut == len(nodes):
        return [fn(node) for node in nodes]
    later = helper.submit(lambda: [fn(node) for node in nodes[cut:]])
    try:
        done = [fn(node) for node in nodes[:cut]]
    except BaseException:
        if not later.cancel():
            wait((later,))
        raise
    return done + ([fn(node) for node in nodes[cut:]] if later.cancel() else later.result())


def _picard_targets(
    problem: BsdeProblem,
    factors: tuple[np.ndarray, np.ndarray],
    times: np.ndarray,
    start: int,
    end: int,
    terminal_values: np.ndarray,
    u: np.ndarray | None,
    f1_window: np.ndarray | None,
    helper: ThreadPoolExecutor | None = None,
) -> np.ndarray:
    """Raw conditional-expectation targets of the window map, shape (W+1, M, N).

    target_l = exp(-(t_end - t_l) a) terminal
               + sum_{j=l}^{end-1} exp(-(t_j - t_l) a) I_j [f0(t_j, U_j) + f1_j],
    accumulated by one backward recursion (exact for the piecewise-constant
    interpolant of the integrand).  ``u = None`` means drift-free, and
    ``f1_window`` holds the frozen driver at the window's nodes, (W, M, N).  The
    states ``u[:W]`` the drift sees come from ``_project_to_ball``, so they
    lie in the ball.  A non-finite drift value raises ``NonFiniteDrift``.
    The nodes' drift terms are shared with ``helper``; the recursion is not.
    """
    decay, kernel_int = factors
    width = end - start
    targets = np.empty((width + 1,) + terminal_values.shape)
    targets[width] = terminal_values
    f0 = problem.f0
    drift_on = u is not None and not f0.is_zero

    def drift_term(j):
        l = start + j
        f_val = 0.0
        if drift_on:
            f_val = _finite_drift("f0", f0(float(times[l]), u[j]), l, times[l])
        if f1_window is not None:
            f_val = f_val + f1_window[j]
        np.multiply(kernel_int[l], f_val, out=targets[j])

    _shared(helper, drift_term, range(width - 1, -1, -1))
    carry = np.empty(terminal_values.shape)
    for j in range(width - 1, -1, -1):
        targets[j] += np.multiply(decay[start + j], targets[j + 1], out=carry)
    return targets


def _finite_drift(name: str, values, node: int, t: float):
    """The drift values, unless some of them are NaN or Inf."""
    if not np.isfinite(values).all():
        raise NonFiniteDrift(f"{name} returned a non-finite value at node {node} (t = {t:g})")
    return values


def _bound_first(
    op: DiagonalOperator,
    alpha: float,
    x: np.ndarray,
    fold: Callable[[np.ndarray], np.ndarray] = lambda norms: norms,
    weights: np.ndarray | None = None,
    floor: float | None = None,
) -> np.ndarray:
    """Group values ``fold(alpha norms) * weights``, exact wherever they can exceed ``floor``.

    ``fold`` reduces the norms of the states ``x`` (..., N) to one value per
    group along the leading axis, e.g. per node; by default every state is a
    group.  Each group is first valued from the one-matmul
    ``h_alpha_norm_bound``, an upper bound of its exact value up to rounding,
    and is normed exactly only if its bound times (1 + 1e-12), far above that
    rounding, exceeds ``floor``.  Without a floor, the group with the largest
    bound is normed exactly first and its value is the floor.  Every other
    group keeps a bound at or below the floor, so ``values.max()`` is the
    maximum of the exact values to the bit, NaN included, and ``values >
    floor`` is the mask exact values give.  This relies on a subset of a
    batch getting the whole batch's exact bits.
    """
    values = fold(h_alpha_norm_bound(op, alpha, x))
    if weights is not None:
        values = values * weights

    def exact(groups):
        norms = fold(h_alpha_norm_batch(op, alpha, x[groups]))
        return norms if weights is None else norms * weights[groups]

    first = np.zeros(values.shape, dtype=bool)
    if floor is None:
        first.flat[np.argmax(values)] = True  # the first NaN, if any: the maximum is NaN
        floor = exact(first)[0]
    near = (values * (1.0 + 1e-12) > floor) & ~first
    values[first] = floor
    if near.any():
        values[near] = exact(near)
    return values


def _project_to_ball(problem: BsdeProblem, y_l: np.ndarray, radius: float) -> tuple:
    """Rescale one node's states (M, N) radially onto the alpha ball, in place.

    Polynomial regression can overshoot a bounded target on tail paths; the
    true conditional expectation lies in the (convex) ball, so pulling the
    estimate back onto it never increases the pathwise error.  This is the one
    place that keeps the drift's states in the ball: afterwards every state
    has an exact alpha norm within a few ulp of the radius or below it.
    Returns the number of rescaled states and the (M,) scale the states were
    multiplied by, or (0, None) for an infinite radius or where none of them
    was rescaled.  ``_bound_first`` with the radius as its floor norms exactly
    only the states whose bound can reach the radius, so the clip mask is the
    one exact norms give.
    """
    if not math.isfinite(radius):
        return 0, None
    norms = _bound_first(problem.operator, problem.alpha, y_l, floor=radius)
    mask = norms > radius
    if not mask.any():
        return 0, None
    scale = np.where(mask, radius / np.maximum(norms, 1e-300), 1.0)
    y_l *= scale[:, None]
    return int(np.count_nonzero(mask)), scale


# folds of a window's (W, M) norms to one value per node
def _ensemble_l2(norms: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(norms ** 2, axis=1))


def _path_max(norms: np.ndarray) -> np.ndarray:
    return norms.max(axis=1)


# Picard steps a window takes before the tolerance may stop it
_MIN_ITER = 2
# Picard steps allowed; a window's map contracts by 1/2, so only divergence reaches it
_MAX_ITER = 50


def local_solve(
    problem: BsdeProblem,
    ensemble: WienerEnsemble,
    basis: RegressionBasis,
    factors: tuple[np.ndarray, np.ndarray],
    start: int,
    end: int,
    terminal_values: np.ndarray,
    radius: float,
    tol: float,
    f1_window: np.ndarray | None = None,
    *,
    designs: list,
    helper: ThreadPoolExecutor | None = None,
) -> tuple[np.ndarray, WindowStats, list]:
    """Fixed point y (W+1, M, N) of the window map by Picard iteration, with its stats.

    ``factors`` are the grid's step decays and kernel integrals; ``designs``
    holds the caller's design of each node of the window, or None where it
    holds none and the node builds its design at each fit.  Pass 0 is the
    drift-free start, passes 1 to ``_MAX_ITER`` are Picard steps.  Each pass
    is two batches of per-node work shared with ``helper``: the drift terms,
    before the serial recursion of ``_picard_targets``, then one step per
    node that fits the node's target on its design, projects it onto the
    ball and, from pass 1 on, overwrites the previous pass's row with the
    difference.  Also returned, per node of the last pass: the fit's
    coefficients and the per-path scale the projection applied (None if it
    clipped no state of the node), so np.dot(design, coef) times that scale is the
    node's y bit for bit.  The loop stops when the sup-over-nodes
    ensemble-L2 alpha distance of successive passes is zero, or below tol
    after ``_MIN_ITER`` steps; two consecutive distance ratios
    above one raise ``PicardDivergence``, and the caller may halve the window.
    ``_bound_first`` takes that sup exactly while norming exactly only the
    nodes whose bound can reach it; a NaN state makes it NaN, which neither
    stops the loop nor counts as divergence.
    """
    times = ensemble.grid.times
    op, alpha = problem.operator, problem.alpha
    rank_deficient = 0
    clipped = 0
    u = None
    distances: list[float] = []
    factors_seen: list[float] = []
    bad_streak = 0
    for it in range(_MAX_ITER + 1):
        # each fit overwrites its own row of the targets, which it reads first
        y = _picard_targets(problem, factors, times, start, end, terminal_values, u, f1_window,
                            helper)

        def step(j):
            l, held = start + j, designs[j]
            phi = basis.design(ensemble, l) if held is None else held
            fit = _fit(ensemble, basis, l, phi, y[j])
            y[j] = fit.fitted
            count, scale = _project_to_ball(problem, y[j], radius)
            if it:  # u, which nothing reads any more, takes the difference
                np.subtract(y[j], u[j], out=u[j])
            return fit.coef, fit.rank_deficient, count, scale

        coefs, deficient, counts, scales = zip(*_shared(helper, step, range(len(designs))))
        rank_deficient += sum(deficient)
        clipped += sum(counts)
        if it:  # pass 0 has no previous pass to measure against
            # sup over window nodes of the ensemble-L2 alpha norm
            dist = float(_bound_first(op, alpha, u[:-1], fold=_ensemble_l2).max())
            if distances:
                factor = dist / distances[-1] if distances[-1] > 0 else 0.0
                factors_seen.append(factor)
                bad_streak = bad_streak + 1 if factor > 1.0 else 0
                if bad_streak >= 2:
                    raise PicardDivergence(
                        f"distance ratio above one twice in a row (last {factor:.3f})"
                    )
            distances.append(dist)
            if dist == 0.0 or (dist < tol and it >= _MIN_ITER):
                stats = WindowStats(start, end, radius, it, distances, factors_seen,
                                    ball_clipped=clipped, rank_deficient=rank_deficient)
                return y, stats, list(zip(coefs, scales))
        u = y
    raise PicardDivergence(
        f"no convergence within {_MAX_ITER} iterations (last distance {distances[-1]:.3e})"
    )


# ---------------------------------------------------------------------------
# global solve: windows pasted right to left


def _auto_tol(terminal_values: np.ndarray) -> float:
    """Three Monte Carlo standard errors of the terminal estimate, with a floor."""
    m = terminal_values.shape[0]
    norms = np.linalg.norm(terminal_values - terminal_values.mean(axis=0), axis=-1)
    se = float(np.sqrt(np.mean(norms ** 2) / m))
    scale = float(np.linalg.norm(terminal_values) / math.sqrt(m))
    return max(3.0 * se, 1e-12 * max(scale, 1.0), 1e-14)


def _window_steps(delta: float, dt: float, n_steps: int) -> int:
    """Whole grid steps in a window of length delta, at most ``n_steps``.

    Raises ``GridTooCoarse`` with the refinement factor when the window is
    shorter than one step.
    """
    if delta < dt:
        factor = max(2, math.ceil(dt / delta))
        raise GridTooCoarse(
            f"window length below one grid step; rerun with at least {factor}x steps",
            factor=factor,
        )
    if math.isinf(delta):
        return n_steps
    return min(n_steps, max(1, int(math.floor(delta / dt + 1e-12))))


def global_solve(
    problem: BsdeProblem,
    ensemble: WienerEnsemble,
    basis: RegressionBasis,
    plan: SolvePlan,
    factors: tuple[np.ndarray, np.ndarray],
    terminal_values: np.ndarray,
    report: SolverReport,
    driver: Callable[[int, np.ndarray], np.ndarray] | None = None,
    *,
    node_sink: Callable[[int, np.ndarray, Regression | None, tuple | None], None],
    helper: ThreadPoolExecutor,
) -> None:
    """Right-to-left window sweep on [0, T] for one frozen driver path.

    ``general_solve`` supplies the grid's step factors and terminal values;
    the whole window schedule is chosen here, on a uniform grid.  The first
    window ends at T; its radius R_1 = 2 M_alpha ||xi|| and length delta_1
    are the plan's selection.  Its solution fits the blow-up constant
    C_2, which supplies the radius R_2 = 2 M_alpha C_2 /
    delta_1^(theta-alpha) and the constant window length delta_2 = delta_3 =
    ... for all remaining windows.  Every window iterates to the Picard
    tolerance ``_auto_tol`` of the terminal values; a window shorter than one
    step raises ``GridTooCoarse``.  Pasted values agree at the joins by
    construction.  A window whose Picard iteration diverges is halved; the
    projection keeps each window's states in its ball, so nothing else halves
    one.  Each window builds its nodes' designs once, before the driver and
    the first Picard pass; every fit and rebuild of a node reads them.  They
    take at most ``ensemble_nbytes`` of the ensemble: past that cap the
    window holds its rightmost nodes' designs, and the others are built at
    each use.  ``problem.f1`` is ignored: the frozen driver enters as
    ``driver(l, design)``, read once per window for its nodes; a halved
    window keeps the last rows of both.  Window statistics, C_2 and both
    selections are written to ``report``, and each halving is appended to
    ``report.messages``.

    Once a window has converged and the paste selection has kept the grid,
    the solve's one ``helper`` thread takes it while the next window iterates
    here; at most one window is in flight, and it is joined before this call
    returns or raises.  Meanwhile each batch of the next window's per-node
    work (its frozen driver, then two per Picard pass: the drift terms and
    the step of fit, projection and difference) offers half of its nodes
    to the helper, which takes them once the window in flight has left.
    Each node l gets the fit ``martingale_z_estimate`` of ``decay[l] * y[l + 1]`` on its
    window's design, whose fitted values are Z_l, and goes to
    ``node_sink(l, y_l, z_fit, y_fit)`` with y_fit = (coef, scale) from
    ``local_solve``: node L first, with z_fit = y_fit = None, then strictly
    descending l, each exactly once.
    The sink may keep y_l and the fits but must not write into y_l, from which
    Z of the node to its left is estimated, nor into what ``driver`` reads.
    An exception it raises ends the sweep and is raised here.
    ``general_solve`` passes its node exit, or under the outer fixed point
    the distance to the previous iterate.
    """
    op, alpha, theta = problem.operator, problem.alpha, problem.theta
    grid = ensemble.grid
    times = grid.times
    n_steps = grid.n_steps
    dt = float(times[1] - times[0])
    if not np.allclose(grid.deltas, dt, rtol=1e-9):
        raise ValueError("window scheduling requires a uniform time grid")
    sel1 = plan.selection
    radius = sel1.radius
    steps_per_window = _window_steps(sel1.delta, dt, n_steps)
    report.selection = asdict(sel1)
    tol = _auto_tol(terminal_values)

    decay = factors[0]
    join = terminal_values
    windows: list[WindowStats] = []
    paste: dict = {}
    c2 = math.nan
    window_count = 1

    # the designs one window may hold within the bytes of its ensemble
    max_held = ensemble_nbytes(n_steps, ensemble.n_paths, ensemble.n_noise) // (
        8 * ensemble.n_paths * basis.n_features(ensemble.n_noise))

    def exit_window(y, fits, designs, start, end):
        if end == n_steps:
            node_sink(n_steps, terminal_values, None, None)
        for j in range(end - start - 1, -1, -1):
            l = start + j
            z_fit = martingale_z_estimate(ensemble, basis, l, decay[l] * y[j + 1], designs[j])
            node_sink(l, y[j], z_fit, fits[j])

    in_flight = None
    try:
        end = n_steps
        while end > 0:
            first = end == n_steps
            steps = min(steps_per_window, end)
            # built once per window here (built on the helper, they raise the peak
            # RSS), for its driver, Picard passes and Z fits; past the cap, the
            # leftmost nodes build theirs at each use
            designs = [basis.design(ensemble, l) if end - l <= max_held else None
                       for l in range(end - steps, end)]
            f1_window = None
            if driver is not None:
                f1_window = np.empty((steps,) + terminal_values.shape)

                def freeze(j):
                    l, held = end - steps + j, designs[j]
                    f1_window[j] = driver(l, basis.design(ensemble, l) if held is None else held)

                _shared(helper, freeze, range(steps))
            halvings = 0
            while True:
                try:
                    y, stats, fits = local_solve(
                        problem, ensemble, basis, factors, end - steps, end, join, radius,
                        tol=tol, f1_window=None if f1_window is None else f1_window[-steps:],
                        designs=designs[-steps:], helper=helper,
                    )
                    break
                except PicardDivergence as err:
                    halvings += 1
                    steps //= 2
                    report.messages.append(f"window ending at node {end}: {err}; halving")
                    if steps < 1:
                        raise
            stats.halvings = halvings
            windows.append(stats)
            start = end - steps

            if first:
                delta1 = steps * dt
                theta_gap = theta - alpha
                weights = (times[-1] - times[start:]) ** theta_gap
                c2 = float(_bound_first(op, theta, y, fold=_path_max, weights=weights).max())
                if start > 0:
                    bound2 = c2 / delta1 ** theta_gap
                    sel2 = select_local_radius_and_delta(problem, bound2, plan.consts)
                    paste = asdict(sel2)
                    radius = sel2.radius
                    steps_per_window = _window_steps(sel2.delta, dt, n_steps)
                    window_count = 1 + math.ceil(start / steps_per_window)
            # to the helper once the paste selection has kept the grid and the last window left
            if in_flight is not None:
                in_flight.result()
            in_flight = helper.submit(exit_window, y, fits, designs[-steps:], start, end)
            join = y[0].copy()  # the next window starts here
            end = start
        in_flight.result()
    finally:  # the window in flight is joined, raised or not
        if in_flight is not None:
            wait((in_flight,))

    report.windows = windows
    report.picard_factors = [f for w in windows for f in w.factors]
    report.rank_deficient_count = sum(w.rank_deficient for w in windows)
    report.c2_fit = c2
    report.selection_paste = paste
    report.window_count_formula = window_count


def _record_bound_checks(
    work: BsdeProblem, report: SolverReport, times: np.ndarray,
    mean_h: np.ndarray, max_h: np.ndarray, max_theta: np.ndarray,
) -> None:
    """Fill the per-node norm columns and the closed-form bound values.

    Per node, the node exit records the mean and max over paths of |Y|_H and
    the max of the theta norm.
    """
    alpha, theta = work.alpha, work.theta
    report.times = times.tolist()
    report.mean_y_h = mean_h.tolist()
    report.max_y_h_per_node = max_h.tolist()
    report.max_y_h = float(max_h.max())
    report.c1_bound = apriori_h_bound(
        work.terminal_bound_h, work.f0.growth_scale, work.driver_bound, work.horizon
    )
    report.max_y_theta_per_node = max_theta.tolist()
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf at t = T when C_2 = 0
        bounds = report.c2_fit * (times[-1] - times) ** (alpha - theta)
    report.blowup_bound_per_node = bounds.tolist()
    finite = np.isfinite(bounds) & (bounds > 0)
    if np.any(finite):
        margins = max_theta[finite] / bounds[finite]
        report.blowup_margin = float(margins.max())


# ---------------------------------------------------------------------------
# the solve driver: per-solve work, grid refinement, outer fixed point


def _rebuild_node(design, y_coef, y_clip, z_coef, n_noise):
    """(Y_l, Z_l) from the node's ``design``, bit for bit: ``np.dot(design, y_coef)``
    times the projection's per-path scale ``y_clip`` (None: no clip) and
    ``np.dot(design, z_coef)``, the products ``_fit`` forms."""
    y_l = np.dot(design, y_coef)
    if y_clip is not None:
        y_l *= y_clip[:, None]
    return y_l, np.dot(design, z_coef).reshape(y_l.shape + (n_noise,))


def _estimator_rng(seed: int) -> np.random.Generator:
    # distinct stream from the path blocks, which use spawn keys 0..n_blocks-1
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2 ** 20,)))


@dataclass(frozen=True)
class SolvePlan:
    """What ``plan_solve`` decides before any path is drawn; ``refinements`` holds
    one report line per refinement of the caller's ``base_steps`` to ``n_steps``."""

    lam: float
    raw: EmpiricalConstants
    consts: EmpiricalConstants
    selection: WindowSelection  # of the first window
    base_steps: int
    n_steps: int
    refinements: tuple[str, ...]


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refined(need: GridTooCoarse, steps: int, grids: int, n_paths: int, n_noise: int, seed: int):
    """(``need.factor`` times ``steps``, its report line) for grid ``grids + 1``; a fourth grid,
    or one whose ensemble would not fit in physical memory, raises ``GridTooCoarse``."""
    if grids == 3:
        raise GridTooCoarse("grid refinement did not reach the required window resolution") from need
    steps *= need.factor
    held = ensemble_nbytes(steps, n_paths, n_noise)
    if held > _physical_memory():
        raise GridTooCoarse(
            f"a grid refined to {Decimal(steps):.3e} steps needs {Decimal(held):.3e} "
            "bytes of increments and checkpoints, more than this machine's physical memory"
        )
    return steps, f"window below one grid step: grid refined x{need.factor} to {steps} steps (seed {seed})"


def plan_solve(problem: BsdeProblem, n_steps: int, seed: int, n_paths: int) -> SolvePlan:
    """Plan a solve of ``n_paths`` paths on ``n_steps`` uniform steps before any is drawn:
    the shift lam that removes a positive monotonicity constant from f0, the
    operator constants, from ``seed`` alone, and the first window, selected from
    the terminal bound with f1 frozen, on a grid refined until it resolves it."""
    mu = problem.f0.monotonicity
    lam = mu if mu > 0.0 else 0.0
    frozen = replace(exponential_shift(problem, lam), f1=None)
    raw = estimate_constants(frozen.operator, frozen.alpha, frozen.horizon,
                             rng=_estimator_rng(seed), trials=_CONSTANTS_TRIALS)
    consts = raw.scaled(_SAFETY_MARGIN)
    first = select_local_radius_and_delta(frozen, frozen.terminal_bound, consts)
    steps, lines = n_steps, []
    for grids in range(1, 4):  # _refined refuses a fourth grid
        times = TimeGrid.uniform(frozen.horizon, steps).times
        try:
            _window_steps(first.delta, float(times[1] - times[0]), steps)
            return SolvePlan(lam, raw, consts, first, n_steps, steps, tuple(lines))
        except GridTooCoarse as need:
            steps, line = _refined(need, steps, grids, n_paths, problem.noise_dim, seed)
            lines.append(line)


def general_solve(
    problem: BsdeProblem,
    ensemble: WienerEnsemble,
    basis: RegressionBasis,
    sink: Callable[[int, np.ndarray, np.ndarray | None, tuple | None], None],
    *,
    plan: SolvePlan | None = None,
) -> SolverReport:
    """Solve the equation on [0, T]: the one solve driver.

    Once per solve: the validation gate and the plan (``plan_solve``: shift,
    operator constants, first window and its grid), the caller's ``plan`` or
    one made from the ensemble's step count and seed.  An ensemble coarser
    than the plan is released and the planned grid drawn from its seed before
    any terminal value.  Once per grid: step factors, terminal values and
    their bound check.  Only a paste window, whose length follows from the
    C_2 fitted on the first window, can still be shorter than one step; the
    solve then restarts on a grid refined by an integer factor, resampled
    once the coarse attempt is released, within the plan's three grids.
    ``report.grid_refined`` is against ``plan.base_steps``.  A basis with
    more features than paths is rejected before any fit.

    The (y, z)-coupled driver f1 is handled by the weighted outer fixed point:
    each outer step runs the window sweep ``global_solve`` with f1 frozen
    along the current iterate's paths, evaluated one window at a time as the
    sweep reaches it.  Distances between successive (Y, Z) are
    measured in the exp(beta t)-weighted ensemble norm with beta = 4 K^2 + 1,
    under which the squared distances contract by 1/2 in theory; the loop
    stops below max(1e-9, 0.02 d_1), with d_1 the first distance.  Without f1
    one sweep solves the equation; a driver independent of (y, z) (K = 0)
    ends the loop after one outer step.  Where exp(beta T) overflows a float
    the weights would, so that raises ``OuterDivergence`` before any sweep.

    Every node leaves the solve through one exit: its norms are recorded for
    the bound checks, it is shifted back by exp(-lam t_l), added to the
    residual, and then ``sink(l, y_l, z_l, fit)`` receives it: node L first
    with ``z_l = fit = None``, then nodes L-1 down to 0, each once, with
    ``fit = (y_coef, y_clip, z_coef, shift)``: ``_rebuild_node`` on the node's
    design, times ``shift``, gives y_l and z_l bit for bit.  The solve returns
    its ``SolverReport`` and never holds Y or Z on all paths.
    The solve starts one helper thread for ``global_solve`` and joins it on
    leaving, raised or not.  Without f1 the helper feeds the exit one window
    behind the Picard iteration, so the sink runs there, and the solve holds
    the ensemble and two windows with their designs.  With f1 the
    outer distance and the next frozen driver need the whole previous
    iterate: the loop holds it as each node's regression coefficients, (B, N)
    for Y and (B, N K) for Z in place of the (M, N) and (M, N, K) values, and
    the per-path scale the ball projection applied to Y.  The helper
    overwrites a node once its distance to the previous iterate is taken,
    only on converged windows, so the driver reads the previous iterate.
    Every read rebuilds Y and Z from the coefficients on the design the sweep
    holds, equal to the fitted values bit for bit.  The converged iterate
    replays through the same exit, two nodes at a time: each node's design,
    rebuild, norms and residual terms are shared with the helper, then the
    pair enters the residual and the sink in descending order on the calling
    thread.  A sink's exception ends the solve.
    """
    t0 = time.perf_counter()
    if not problem.validated:
        raise ValidationError(
            "validation", "the problem has not passed it; run models.validate_problem first"
        )
    if ensemble.n_noise != problem.noise_dim:
        raise ValueError(
            f"ensemble carries {ensemble.n_noise} noise coordinates, problem declares "
            f"{problem.noise_dim}"
        )
    n_features = basis.n_features(ensemble.n_noise)
    if n_features > ensemble.n_paths:
        raise ValidationError(
            "basis", f"{n_features} regression features exceed the {ensemble.n_paths} paths, "
            "so every fit would be underdetermined"
        )
    if plan is None:
        plan = plan_solve(problem, ensemble.grid.n_steps, ensemble.seed, ensemble.n_paths)
    lam = plan.lam
    work = exponential_shift(problem, lam)
    # The sweep sees f1 only as a frozen path, so window selection and the
    # a-priori bound C1 use driver bound 0.  C1 is a solve.csv column: using
    # the true bound changes the byte-identical output of every f1 problem.
    frozen = replace(work, f1=None)
    f1 = work.f1
    k_lip = problem.driver_lipschitz
    beta = 4.0 * k_lip ** 2 + 1.0
    if f1 is not None and beta * problem.horizon > math.log(sys.float_info.max):
        raise OuterDivergence(f"the outer distance's weight exp(beta T) overflows a float: "
                              f"beta = 4 K^2 + 1 = {beta:g}, T = {problem.horizon:g}")
    op, alpha, theta = work.operator, work.alpha, work.theta
    report = SolverReport(
        alpha=problem.alpha, theta=problem.theta, lambda_shift=lam, seed=ensemble.seed,
        n_paths=ensemble.n_paths, n_noise=ensemble.n_noise, messages=list(plan.refinements),
        constants={"raw": asdict(plan.raw), "scaled": asdict(plan.consts)},
    )

    steps = plan.n_steps
    with ThreadPoolExecutor(max_workers=1) as helper:  # joined on leaving, raised or not
        for grids in range(len(plan.refinements) + 1, 4):  # _refined refuses a fourth grid
            if ensemble.grid.n_steps != steps:
                # the coarser ensemble and any attempt on it are released before the
                # finer one is drawn; the closures hold their arrays through these names
                grid = TimeGrid.uniform(ensemble.grid.horizon, steps)
                draw = (ensemble.n_noise, ensemble.n_paths, ensemble.seed)
                ensemble = sweep = fits = terminal_values = None
                ensemble = sample_ensemble(grid, *draw)
            grid = ensemble.grid
            times = grid.times
            try:
                factors = _step_factors(op, grid.deltas)
                terminal_values = np.asarray(work.terminal(ensemble), dtype=float)
                if terminal_values.shape != (ensemble.n_paths, op.dimension):
                    raise ValueError("terminal map returned the wrong shape")
                term_max = float(h_alpha_norm_batch(op, alpha, terminal_values).max())
                if not math.isfinite(term_max):  # NaN passes any comparison with the bound
                    raise ValidationError(
                        "terminal", f"alpha norm {term_max:g} is not finite on some path"
                    )
                if term_max > work.terminal_bound * (1.0 + 1e-9):
                    raise ValidationError(
                        "terminal", f"alpha norm {term_max:g} exceeds the declared bound "
                        f"{work.terminal_bound:g} on some path"
                    )
                report.n_steps = grid.n_steps

                # the one exit of a node: its norms, shifted back, into the residual, then out
                y_scale = np.exp(-lam * times)
                sweep = _ResidualSweep(problem, grid, ensemble, factors,
                                       terminal_values * y_scale[-1])
                # per node: mean and max of |Y|_H and max of the theta norm, on the shifted Y
                node_norms = np.empty((3, grid.n_steps + 1))
                z_node = terminal_values.shape + (ensemble.n_noise,)

                def shifted(l, y_l, z_l):
                    # the node's norms, then the node shifted back; on either thread
                    h = np.linalg.norm(y_l, axis=-1)
                    theta_max = _bound_first(op, theta, y_l).max() if theta > 0 else h.max()
                    node_norms[:, l] = h.mean(), h.max(), theta_max
                    if lam:
                        y_l = y_l * y_scale[l]
                        z_l = None if z_l is None else z_l * y_scale[l]
                    return y_l, z_l

                def out(l, y_l, z_l, fit):
                    sink(l, y_l, z_l, None if fit is None else (*fit, y_scale[l]))

                def exit_node(l, y_l, z_fit, y_fit):
                    y_l, z_l = shifted(l, y_l, None if z_fit is None else z_fit.fitted)
                    if z_l is not None:
                        sweep.add(l, y_l, z_l)
                    out(l, y_l, z_l, None if z_fit is None else (*y_fit, z_fit.coef))

                if f1 is None:
                    global_solve(
                        frozen, ensemble, basis, plan, factors, terminal_values, report,
                        node_sink=exit_node, helper=helper,
                    )
                    break
                w = np.exp(beta * times[:-1]) * grid.deltas
                y_sq = np.empty(grid.n_steps)
                z_sq = np.empty(grid.n_steps)
                # the previous iterate, per node the coefficients of Y and Z on the
                # node's design and Y's projection scale; None until the first sweep,
                # whose frozen Y and Z are zero
                fits: list = [None] * grid.n_steps
                y_zero, z_zero = np.zeros(terminal_values.shape), np.zeros(z_node)

                def previous(l, design):
                    # (Y_l, Z_l) of the previous iterate, rebuilt bit for bit on node l's design
                    if fits[l] is None:
                        return y_zero, z_zero
                    return _rebuild_node(design, *fits[l], ensemble.n_noise)

                def to_previous(l, y_l, z_fit, y_fit):
                    # the distance to the previous iterate, which is then overwritten;
                    # node L carries no Z and its Y is the terminal values in every iterate
                    if z_fit is None:
                        return
                    # on the design this fit has just used; into the rebuilt Z and
                    # squared in place, as the helper's arrays add to the next window's
                    # Picard iteration; the first sweep's shared zeros are never written
                    y_prev, z_prev = previous(l, z_fit.design)
                    y_sq[l] = np.square(y_l - y_prev).sum(axis=-1).mean()
                    z_diff = np.subtract(z_fit.fitted, z_prev,
                                         out=None if z_prev is z_zero else z_prev)
                    z_sq[l] = np.square(z_diff, out=z_diff).sum(axis=(-1, -2)).mean()
                    fits[l] = (*y_fit, z_fit.coef)

                def driver(l, design):
                    # f1 frozen at the previous iterate, whose node l is not yet overwritten
                    y_l, z_l = previous(l, design)
                    return _finite_drift("f1", f1(float(times[l]), y_l, z_l), l, times[l])

                distances: list[float] = []
                sq_factors: list[float] = []
                bad_streak = 0
                for _ in range(_MAX_OUTER):
                    global_solve(
                        frozen, ensemble, basis, plan, factors, terminal_values, report,
                        driver, node_sink=to_previous, helper=helper,
                    )
                    dist = math.sqrt(float((w * y_sq).sum()) + float((w * z_sq).sum()))
                    if distances:
                        prev = distances[-1]
                        sq = (dist / prev) ** 2 if prev > 0 else 0.0
                        sq_factors.append(sq)
                        bad_streak = bad_streak + 1 if sq >= 1.0 else 0
                        if bad_streak >= 2:
                            raise OuterDivergence(
                                f"weighted squared factor at or above one twice (last {sq:.3f})"
                            )
                    distances.append(dist)
                    if dist == 0.0 or dist < max(1e-9, 0.02 * distances[0]) or k_lip == 0.0:
                        break
                else:
                    raise OuterDivergence(
                        f"outer iteration did not converge within {_MAX_OUTER} steps"
                    )
                exit_node(grid.n_steps, terminal_values, None, None)

                def replay(l):
                    y_l, z_l = shifted(l, *previous(l, basis.design(ensemble, l)))
                    return l, y_l, z_l, sweep.terms(l, y_l, z_l)

                for top in range(grid.n_steps - 1, -1, -2):  # two nodes at a time
                    pair = range(top, max(top - 2, -1), -1)
                    for l, y_l, z_l, terms in _shared(helper, replay, pair):
                        sweep.commit(l, y_l, *terms)  # in descending l, as the exit's add
                        out(l, y_l, z_l, fits[l])
                break
            except GridTooCoarse as need:
                steps, line = _refined(need, grid.n_steps, grids, ensemble.n_paths,
                                       ensemble.n_noise, ensemble.seed)
                report.messages.append(line)

    report.grid_refined = ensemble.grid.n_steps // plan.base_steps
    if f1 is not None:
        report.outer = {
            "beta": beta,
            "lipschitz": k_lip,
            "iterations": len(distances),
            "distances": distances,
            "squared_factors": sq_factors,
        }
    _record_bound_checks(frozen, report, times, *node_norms)
    report.residual_value = sweep.value()
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# residual of the mild equation


class _ResidualSweep:
    """The defect sum of ``residual``, taken one node at a time from the right.

    ``add(l, y_l, z_l)`` must see l = L-1, L-2, ..., 0 in turn; it evaluates
    the drift at its node and updates the running integrals with the same
    arithmetic, in the same order, as a pass over the whole grid.  It is
    ``commit(l, y_l, *terms(l, y_l, z_l))``, and only ``commit`` needs the order.
    ``factors`` are the grid's step decays and kernel integrals, as
    ``spectral._step_factors`` returns them; ``terminal`` is Y at node L.
    """

    def __init__(
        self,
        problem: BsdeProblem,
        grid: TimeGrid,
        ensemble: WienerEnsemble,
        factors: tuple[np.ndarray, np.ndarray],
        terminal: np.ndarray,
    ):
        self.problem = problem
        self.times, self.weights, self.horizon = grid.times, grid.deltas, grid.horizon
        self.increments = ensemble.increments
        self.decay, self.kernel_int = factors
        self.int_f = np.zeros_like(terminal)
        self.int_z = np.zeros_like(terminal)
        self.prop_term = terminal.copy()
        self.total = 0.0
        self.next_node = grid.n_steps - 1

    def add(self, l: int, y_l: np.ndarray, z_l: np.ndarray) -> None:
        self.commit(l, y_l, *self.terms(l, y_l, z_l))

    def terms(self, l: int, y_l: np.ndarray, z_l: np.ndarray) -> tuple:
        t = float(self.times[l])
        f0, f1 = self.problem.f0, self.problem.f1
        f_val = 0.0
        if not f0.is_zero:
            f_val = f0(t, y_l)
        if f1 is not None:
            f_val = f_val + f1(t, y_l, z_l)
        return f_val, np.einsum("mnk,mk->mn", z_l, self.increments[l])

    def commit(self, l: int, y_l: np.ndarray, f_val, zdw: np.ndarray) -> None:
        if l != self.next_node:
            raise ValueError(f"residual expected node {self.next_node}, got node {l}")
        self.next_node -= 1
        decay = self.decay[l]
        self.int_f = self.kernel_int[l] * f_val + decay * self.int_f
        self.int_z = zdw + decay * self.int_z
        self.prop_term = decay * self.prop_term
        defect = y_l - self.int_f + self.int_z - self.prop_term
        self.total += float(self.weights[l]) * float(np.mean(np.sum(defect ** 2, axis=-1)))

    def value(self) -> float:
        if self.next_node != -1:
            raise ValueError(f"residual is missing nodes 0..{self.next_node}")
        return math.sqrt(self.total / self.horizon)


def residual(problem: BsdeProblem, ensemble: WienerEnsemble, y: np.ndarray, z: np.ndarray) -> float:
    """Ensemble-L2 defect of the integral equation along the solved paths.

    ``y`` holds Y at the L + 1 nodes of the ensemble's grid and ``z`` holds Z
    at its first L nodes; other node counts raise ``ValueError``.  At every
    node the defect
        Y_t - int_t^T exp((s-t)A) f ds + sum_s exp((s-t)A) Z_s dW_s - exp((T-t)A) xi
    is accumulated with the solver's own quadrature; the result is the square
    root of its squared H norm averaged over paths and integrated in t/T.
    Deterministic-terminal linear problems produce machine-size residuals.
    The nodes are taken right to left, one at a time, as they also leave
    ``general_solve`` through its node exit.
    """
    grid = ensemble.grid
    if len(y) != grid.n_steps + 1 or len(z) != grid.n_steps:
        raise ValueError(
            f"the ensemble's grid has {grid.n_steps} steps, so residual needs Y on "
            f"{grid.n_steps + 1} nodes and Z on {grid.n_steps}; got {len(y)} and {len(z)}"
        )
    factors = _step_factors(problem.operator, grid.deltas)
    sweep = _ResidualSweep(problem, grid, ensemble, factors, y[-1])
    for l in range(grid.n_steps - 1, -1, -1):
        sweep.add(l, y[l], z[l])
    return sweep.value()
