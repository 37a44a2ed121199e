"""Application problems: a 1-D reaction-diffusion equation and a lattice spin chain.

Both builders return fully specified ``BsdeProblem`` instances and validate the
standing hypotheses by sampling (growth, local Lipschitz bounds, dissipativity,
driver boundedness) before the solver will accept them.  This module is the
only place that knows how the sampled checks are run: their ball radius, their
state samplers and their allowances.  ``mildbsde validate`` calls the same
checks, so a problem's own pair sampler (the spin chain's boundary-matched
pairs) is used in both places.

Reaction-diffusion: Dirichlet Laplacian on an interval in its sine eigenbasis,
polynomial reaction r (odd, increasing; default cubic) applied pointwise on a
collocation grid and projected back, plus a bounded Lipschitz driver
g = K1 tanh(y) h(x).  Spin chain: sites -n..n with diagonal decay a_j >= 0 and
nearest-neighbor coupling V(x) = x^(2k+1) under zero padding, which keeps the
telescoped coupling term nonpositive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .solver import BoundedDriver, BsdeProblem, DissipativeDrift
from .spectral import (
    DiagonalOperator,
    dirichlet_laplacian_eigenvalues,
    h_alpha_norm_batch,
)

__all__ = [
    "ReactionDiffusionSpec",
    "SpinSpec",
    "DissipativityReport",
    "GrowthReport",
    "ValidationError",
    "build_reaction_diffusion",
    "build_spin_system",
    "spin_drift_fn",
    "check_dissipativity",
    "check_growth_and_lipschitz",
    "sample_dissipativity",
    "sample_growth_and_lipschitz",
    "validate_problem",
    "build_preset",
    "PRESETS",
]


class ValidationError(RuntimeError):
    """A hypothesis check failed; carries the name of the failing check."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def _require_finite(spec, check: str, *names: str) -> None:
    """Reject a spec field that is NaN or infinite, naming ``check`` and the field."""
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValidationError(check, f"{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# reaction-diffusion on (0, length)


@dataclass
class ReactionDiffusionSpec:
    """Desk-scale semilinear heat problem in the Dirichlet sine basis."""

    modes: int = 6
    length: float = math.pi
    reaction_power: int = 3  # r(x) = x^power, odd and increasing
    driver_strength: float = 0.5  # K1 in g = K1 tanh(y) h(x)
    terminal_base: float = 0.25
    terminal_noise: float = 0.1
    alpha: float = 0.25
    horizon: float = 1.0
    fit_trials: int = 2000
    fit_seed: int = 2024

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("need at least one mode")
        if self.reaction_power % 2 == 0 or self.reaction_power < 1:
            raise ValueError("reaction power must be odd and positive (odd increasing drift)")
        _require_finite(self, "terminal", "terminal_base", "terminal_noise")
        _require_finite(self, "driver-bound", "driver_strength")
        gamma = float(self.reaction_power)
        if self.alpha > 0 and gamma * self.alpha >= 1.0:
            raise ValidationError(
                "growth-exponent",
                f"need reaction power < 1/alpha: {gamma} * {self.alpha} >= 1",
            )


class _SineCollocation:
    """Exact discrete projection between sine coefficients and a collocation grid.

    With P = 4N interior points the discrete sine transform is orthogonal for
    the first N modes, so coefficient -> pointwise -> coefficient round trips
    are exact and positive quadrature weights preserve monotonicity of
    pointwise nonlinearities.
    """

    def __init__(self, modes: int, length: float):
        self.modes = modes
        self.length = length
        p = 4 * modes
        j = np.arange(1, p + 1)
        self.x = length * j / (p + 1)
        m = np.arange(1, modes + 1)
        self.basis = math.sqrt(2.0 / length) * np.sin(
            np.outer(m, self.x) * math.pi / length
        )  # (N, P)
        self.weight = length / (p + 1)

    def pointwise(self, coef: np.ndarray) -> np.ndarray:
        return coef @ self.basis

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return (values * self.weight) @ self.basis.T


def build_reaction_diffusion(spec: ReactionDiffusionSpec) -> BsdeProblem:
    """Assemble the reaction-diffusion problem and validate its constants."""
    op = DiagonalOperator(dirichlet_laplacian_eigenvalues(spec.modes, spec.length))
    grid = _SineCollocation(spec.modes, spec.length)
    power = spec.reaction_power
    gamma = float(power)

    def f0(t, y, _g=grid, _p=power):
        u = _g.pointwise(y)
        return _g.coefficients(-(u ** _p))

    h_profile = np.sin(grid.x * math.pi / spec.length)
    k1 = spec.driver_strength

    def f1(t, y, z, _g=grid, _h=h_profile, _k=k1):
        u = _g.pointwise(y)
        return _g.coefficients(-_k * np.tanh(u) * _h)

    k_lip = k1  # sup of |sin| over the interval; |tanh u - tanh u'| <= |u - u'|
    c_bound = k1 * float(np.sqrt(np.sum(h_profile ** 2) * grid.weight))

    rng = np.random.default_rng(spec.fit_seed)
    # growth scale: worst sampled ratio |f0|_H / (1 + ||y||_alpha^gamma), small margin
    samples = _ball_samples(op, spec.alpha, radius=5.0, count=spec.fit_trials, rng=rng)
    ratios = _growth_ratios(op, spec.alpha, f0, samples, gamma)
    growth_scale = 1.1 * float(ratios.max())

    def lipschitz_profile(radius, _op=op, _alpha=spec.alpha, _f0=f0, _seed=spec.fit_seed):
        r = max(float(radius), 1e-9)
        rng_local = np.random.default_rng((_seed, int(1e6 * r) & 0xFFFFFFFF))
        a = _ball_samples(_op, _alpha, r, 600, rng_local)
        b = _ball_samples(_op, _alpha, r, 600, rng_local)
        num = np.linalg.norm(_f0(0.0, a) - _f0(0.0, b), axis=-1)
        den = h_alpha_norm_batch(_op, _alpha, a - b)
        good = den > 0
        return 1.15 * float((num[good] / den[good]).max())

    drift = DissipativeDrift(
        fn=f0,
        growth_scale=growth_scale,
        growth_power=gamma,
        monotonicity=0.0,
        lipschitz=lipschitz_profile,
    )
    driver = BoundedDriver(fn=f1, lipschitz_const=k_lip, bound=c_bound)

    profile = np.zeros(spec.modes)
    profile[0] = 1.0  # first sine mode
    base, noise_amp = spec.terminal_base, spec.terminal_noise

    def terminal(ensemble, _p=profile, _b=base, _a=noise_amp):
        w_t = ensemble.paths()[:, -1, 0]
        return (_b + _a * np.tanh(w_t))[:, None] * _p[None, :]

    profile_norm = float(h_alpha_norm_batch(op, spec.alpha, profile[None, :])[0])
    bound = (base + noise_amp) * profile_norm
    bound_h = (base + noise_amp) * float(np.linalg.norm(profile))

    problem = BsdeProblem(
        operator=op,
        horizon=spec.horizon,
        alpha=spec.alpha,
        terminal=terminal,
        terminal_bound=bound,
        terminal_bound_h=bound_h,
        f0=drift,
        f1=driver,
        noise_dim=spec.modes,
        label="reaction-diffusion-1d",
    )
    validate_problem(problem, trials=400, seed=spec.fit_seed + 1)
    return problem


# ---------------------------------------------------------------------------
# spin chain on sites -n..n


@dataclass
class SpinSpec:
    """Finite window of the lattice system with zero (Dirichlet) padding."""

    half_width: int = 2
    odd_power: int = 1  # k in V(x) = x^(2k+1)
    coefficients: np.ndarray | None = None  # a_j, length 2n+1
    terminal_amp: float = 0.12
    horizon: float = 1.0

    def __post_init__(self):
        if self.half_width < 1 or self.odd_power < 1:
            raise ValueError("need half_width >= 1 and odd power k >= 1")
        _require_finite(self, "terminal", "terminal_amp")
        n = 2 * self.half_width + 1
        if self.coefficients is None:
            sites = np.abs(np.arange(-self.half_width, self.half_width + 1))
            self.coefficients = 0.3 + 0.2 * sites.astype(float)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.size != n:
            raise ValueError(f"need {n} diagonal coefficients")
        if np.any(self.coefficients < 0):
            raise ValueError("diagonal coefficients must be nonnegative")

    @property
    def sites(self) -> int:
        return 2 * self.half_width + 1


def spin_drift_fn(k: int) -> Callable[[float, np.ndarray], np.ndarray]:
    """Nearest-neighbor coupling (f0(y))_j = V(y_{j+1}-y_j) + V(y_{j-1}-y_j) with
    V(x) = x^(2k+1) and zero padding outside the window.

    V(d) is computed as d (d d)^k by repeated multiplication, which keeps it
    exactly odd; ``**`` would take numpy's generic pow path, tens of times slower.
    """

    def odd_power(d):
        sq = d * d
        even = sq
        for _ in range(k - 1):
            even = even * sq
        return d * even

    def f0(t, y):
        padded = np.pad(y, [(0, 0)] * (y.ndim - 1) + [(1, 1)])
        d_plus = padded[..., 2:] - padded[..., 1:-1]
        d_minus = padded[..., :-2] - padded[..., 1:-1]
        return odd_power(d_plus) + odd_power(d_minus)

    return f0


def build_spin_system(spec: SpinSpec) -> BsdeProblem:
    """Assemble the spin-chain problem; alpha = 0 so the state space is plain l2."""
    op = DiagonalOperator(spec.coefficients)
    k = spec.odd_power
    power = 2 * k + 1
    f0 = spin_drift_fn(k)
    # growth via the sequence-space chain ||difference||_{l^{2(2k+1)}} <= ||.||_{l^2}
    # <= 2 ||y||, which gives |f0(y)| <= 2^(2k+2) (1 + ||y||^(2k+1))
    growth_scale = float(2 ** (power + 1))

    def lipschitz_profile(radius, _p=power):
        return 4.0 * _p * (2.0 * max(float(radius), 0.0)) ** (_p - 1)

    drift = DissipativeDrift(
        fn=f0,
        growth_scale=growth_scale,
        growth_power=float(power),
        monotonicity=0.0,
        lipschitz=lipschitz_profile,
    )

    n = spec.sites
    profile = 1.0 / (1.0 + np.abs(np.arange(-spec.half_width, spec.half_width + 1)))
    amp = spec.terminal_amp

    def terminal(ensemble, _p=profile, _a=amp):
        w_t = ensemble.paths()[:, -1, :]
        return _a * np.tanh(w_t) * _p[None, :]

    bound = amp * float(np.linalg.norm(profile))
    problem = BsdeProblem(
        operator=op,
        horizon=spec.horizon,
        alpha=0.0,
        terminal=terminal,
        terminal_bound=bound,
        f0=drift,
        f1=None,
        noise_dim=n,
        pair_sampler=_boundary_matched_pairs,
        label="spin-chain",
    )
    validate_problem(problem, trials=400, seed=7)
    return problem


# ---------------------------------------------------------------------------
# sampled hypothesis checks


@dataclass(frozen=True)
class DissipativityReport:
    max_inner_product: float
    allowance: float
    passed: bool
    trials: int


@dataclass(frozen=True)
class GrowthReport:
    worst_growth_ratio: float
    worst_lipschitz_ratio: float
    growth_ok: bool
    lipschitz_ok: bool
    trials: int


# states per draw in the sampled checks of a problem
_BATCH = 200


def _ball_samples(op, alpha, radius, count, rng):
    """Gaussian states rescaled to alpha norms uniform in (0, radius]."""
    x = rng.standard_normal((count, op.dimension))
    norms = h_alpha_norm_batch(op, alpha, x)
    targets = radius * rng.uniform(0.05, 1.0, size=count)
    return x * (targets / np.maximum(norms, 1e-300))[:, None]


def _growth_ratios(op, alpha, f0, samples, gamma):
    norms = h_alpha_norm_batch(op, alpha, samples)
    vals = np.linalg.norm(f0(0.0, samples), axis=-1)
    return vals / (1.0 + norms ** gamma)


def _independent_pairs(op, alpha, radius, count, rng):
    y = _ball_samples(op, alpha, radius, count, rng)
    return y, _ball_samples(op, alpha, radius, count, rng)


def _boundary_matched_pairs(op, alpha, radius, count, rng):
    """Pairs agreeing on the two boundary sites, which isolates the interior coupling."""
    y = _ball_samples(op, alpha, radius, count, rng)
    delta = _ball_samples(op, alpha, radius, count, rng)
    delta[:, [0, -1]] = 0.0
    return y, y + delta


def _validation_radius(problem: BsdeProblem) -> float:
    """Ball radius of the sampled checks: 2 max(terminal bound, 1), or 2 if unbounded."""
    radius = 2.0 * max(problem.terminal_bound, 1.0)
    return radius if math.isfinite(radius) else 2.0


def check_dissipativity(
    f0: Callable[[np.ndarray], np.ndarray],
    sampler: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]],
    trials: int,
    rng: np.random.Generator | int | None = None,
    radius: float = 1.0,
) -> DissipativityReport:
    """Maximum sampled <f0(y) - f0(y'), y - y'>_H; nonpositive means dissipative.

    ``sampler(rng)`` returns a pair of state batches of equal shape (pairs may
    be constrained, e.g. agreeing on the boundary sites of a lattice window).
    The check passes up to a rounding allowance of 1e-12 max(1, radius)^2 for
    states drawn from the ball of the given radius.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng)
    r = max(1.0, radius)
    allowance = 1e-12 * (r * r)  # inf for a huge radius, where ** 2 would raise
    worst = -math.inf
    done = 0
    while done < trials:
        y1, y2 = sampler(rng)
        inner = np.sum((f0(y1) - f0(y2)) * (y1 - y2), axis=-1)
        worst = float(np.maximum(worst, inner.max()))  # a NaN stays and fails the check
        done += y1.shape[0] if y1.ndim > 1 else 1
    return DissipativityReport(
        max_inner_product=worst, allowance=allowance, passed=worst <= allowance, trials=done
    )


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms that do not overflow: each finite row is divided by its largest entry first."""
    peak = np.abs(x).max(axis=-1)
    scale = np.where(np.isfinite(peak) & (peak > 0), peak, 1.0)
    return scale * np.linalg.norm(x / scale[..., None], axis=-1)


def check_growth_and_lipschitz(
    drift: DissipativeDrift,
    sampler: Callable[[np.random.Generator], np.ndarray],
    trials: int,
    op: DiagonalOperator,
    alpha: float,
    radius: float,
    rng: np.random.Generator | int | None = None,
    slack: float = 1e-9,
) -> GrowthReport:
    """Worst sampled ratios against the drift's declared growth and Lipschitz constants.

    Growth ratio: |f0(t,y)|_H / (S (1 + ||y||_alpha^gamma)); Lipschitz ratio:
    |f0(y1) - f0(y2)|_H / (L_R ||y1 - y2||_alpha) over pairs inside the ball R.
    """
    rng = np.random.default_rng(rng)
    done = 0
    worst_growth = 0.0
    worst_lip = 0.0
    lip_const = drift.lipschitz_at(radius)
    while done < trials:
        y1 = sampler(rng)
        y2 = sampler(rng)
        if y1.ndim == 1:
            y1, y2 = y1[None, :], y2[None, :]
        norms1 = h_alpha_norm_batch(op, alpha, y1)
        keep = norms1 <= radius
        if np.any(keep):
            vals = _row_norms(drift(0.0, y1[keep]))
            denom = drift.growth_scale * (1.0 + norms1[keep] ** drift.growth_power)
            if drift.growth_scale > 0:
                worst_growth = float(np.maximum(worst_growth, (vals / denom).max()))
            else:
                worst_growth = float(np.maximum(worst_growth, vals.max()))
        both = (norms1 <= radius) & (h_alpha_norm_batch(op, alpha, y2) <= radius)
        if np.any(both) and lip_const > 0:
            num = _row_norms(drift(0.0, y1[both]) - drift(0.0, y2[both]))
            den = lip_const * h_alpha_norm_batch(op, alpha, y1[both] - y2[both])
            good = den > 0
            if np.any(good):
                worst_lip = float(np.maximum(worst_lip, (num[good] / den[good]).max()))
        done += y1.shape[0]
    return GrowthReport(
        worst_growth_ratio=worst_growth,
        worst_lipschitz_ratio=worst_lip,
        growth_ok=worst_growth <= 1.0 + slack,
        lipschitz_ok=worst_lip <= 1.0 + slack,
        trials=done,
    )


def sample_dissipativity(problem: BsdeProblem, trials: int, rng=None) -> DissipativityReport:
    """Dissipativity of f0 - mu y on the problem's pairs in the validation ball."""
    op, alpha, f0 = problem.operator, problem.alpha, problem.f0
    radius = _validation_radius(problem)
    pairs = problem.pair_sampler or _independent_pairs
    return check_dissipativity(
        lambda y: f0(0.0, y) - f0.monotonicity * y,
        lambda r: pairs(op, alpha, radius, _BATCH, r),
        trials, rng, radius=radius,
    )


def sample_growth_and_lipschitz(problem: BsdeProblem, trials: int, rng=None) -> GrowthReport:
    """Growth and local Lipschitz ratios of f0 on states in the validation ball."""
    op, alpha = problem.operator, problem.alpha
    radius = _validation_radius(problem)
    return check_growth_and_lipschitz(
        problem.f0, lambda r: _ball_samples(op, alpha, radius, _BATCH, r),
        trials, op, alpha, radius, rng,
    )


def validate_problem(problem: BsdeProblem, trials: int = 400, seed: int = 0) -> dict:
    """Run the sampled hypothesis checks and mark the problem validated.

    Checks: dissipativity up to the declared monotonicity constant, growth and
    local Lipschitz bounds inside the validation ball, and driver boundedness.
    Raises ``ValidationError`` naming the first failing check.
    """
    rng = np.random.default_rng(seed)
    results: dict = {}
    if not problem.f0.is_zero:
        diss = sample_dissipativity(problem, trials, rng)
        results["dissipativity"] = diss
        if not diss.passed:
            raise ValidationError(
                "dissipativity",
                f"max inner product {diss.max_inner_product:.3e} exceeds the declared "
                f"monotonicity allowance",
            )
        growth = sample_growth_and_lipschitz(problem, trials, rng)
        results["growth"] = growth
        if not growth.growth_ok:
            raise ValidationError(
                "growth",
                f"sampled ratio {growth.worst_growth_ratio:.3f} exceeds the declared scale",
            )
        if not growth.lipschitz_ok:
            raise ValidationError(
                "local-lipschitz",
                f"sampled ratio {growth.worst_lipschitz_ratio:.3f} exceeds the declared profile",
            )
    if problem.f1 is not None:
        op = problem.operator
        y = _ball_samples(op, problem.alpha, _validation_radius(problem), _BATCH, rng)
        z = rng.standard_normal((_BATCH, op.dimension, problem.noise_dim))
        vals = np.linalg.norm(problem.f1(0.0, y, z), axis=-1)
        results["driver-bound"] = worst = float(vals.max())
        if not worst <= problem.f1.bound * (1.0 + 1e-9):  # a NaN fails too
            raise ValidationError(
                "driver-bound",
                f"sampled |f1| = {worst:.3e} exceeds declared bound {problem.f1.bound:.3e}",
            )
    problem.validated = True
    return results


# ---------------------------------------------------------------------------
# presets


# spec type and builder per preset; the builders are looked up by name at call time
PRESETS: dict[str, tuple[type, Callable[..., BsdeProblem]]] = {
    "spin-chain": (SpinSpec, lambda spec: build_spin_system(spec)),
    "reaction-diffusion-1d": (ReactionDiffusionSpec, lambda spec: build_reaction_diffusion(spec)),
}


def build_preset(name: str, **overrides) -> BsdeProblem:
    """Build a preset; ``overrides`` are fields of its spec (the ``[model]`` section)."""
    if name not in PRESETS:
        raise ValidationError("preset", f"unknown preset {name!r}; options: {sorted(PRESETS)}")
    spec_type, build = PRESETS[name]
    unknown = sorted(set(overrides) - {f.name for f in fields(spec_type)})
    if unknown:
        raise ValidationError("config", f"unknown [model] key(s) for {name}: {', '.join(unknown)}")
    return build(spec_type(**overrides))
