"""Truncated cylindrical Wiener ensembles and least-squares conditional expectations.

Conditional expectations given the path history are realized as ridge-regularized
least-squares projections onto polynomial features of the current Brownian
coordinates (the standard regression Monte Carlo construction).  Everything is
deterministic given (seed, M, grid): paths are drawn in fixed blocks of 1024,
block b seeded by child b of ``SeedSequence(seed)``, so enlarging M appends new
paths without redrawing existing ones.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "TimeGrid",
    "WienerEnsemble",
    "RegressionBasis",
    "Regression",
    "sample_ensemble",
    "conditional_expectation",
    "martingale_z_estimate",
]

_PATH_BLOCK = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid 0 = t_0 < ... < t_L = T."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid needs at least two nodes")
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if horizon <= 0 or steps < 1:
            raise ValueError("need positive horizon and at least one step")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.times)


@dataclass
class WienerEnsemble:
    """M sampled paths of a K-truncated cylindrical Wiener process.

    ``increments[m, l, k]`` ~ Normal(0, dt_l), independent across all indices.
    The two private fields, the node-major paths and the per-node ridged Gram
    matrices, are lazy caches of values derived from the increments; no fit
    leaves any other state here.  ``dataclasses.replace`` starts them empty.
    """

    grid: TimeGrid
    increments: np.ndarray
    seed: int
    _paths: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # (basis, t_index) -> that node's ridged Gram matrix, set by its first ridge fit
    _ridged_gram: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_noise(self) -> int:
        return self.increments.shape[2]

    def paths(self) -> np.ndarray:
        """Cumulative coordinates W_{t_l}, shape (M, L+1, K); W_0 = 0.

        Stored node-major, so ``paths()[:, l, :]`` is one contiguous block.
        """
        if self._paths is None:
            m, l, k = self.increments.shape
            w = np.zeros((l + 1, m, k))
            np.cumsum(self.increments.transpose(1, 0, 2), axis=0, out=w[1:])
            self._paths = w
        return self._paths.transpose(1, 0, 2)


def sample_ensemble(grid: TimeGrid, k: int, m: int, seed: int) -> WienerEnsemble:
    """Draw a reproducible ensemble; identical seeds give bit-identical arrays."""
    if k < 1 or m < 1:
        raise ValueError("need at least one path and one noise coordinate")
    n_steps = grid.n_steps
    scale = np.sqrt(grid.deltas)[None, :, None]
    out = np.empty((m, n_steps, k))
    children = np.random.SeedSequence(seed).spawn((m + _PATH_BLOCK - 1) // _PATH_BLOCK)
    for b, child in enumerate(children):
        lo = b * _PATH_BLOCK
        np.random.default_rng(child).standard_normal(out=out[lo : lo + _PATH_BLOCK])
    out *= scale
    return WienerEnsemble(grid=grid, increments=out, seed=int(seed))


# ---------------------------------------------------------------------------
# regression bases and conditional expectations


@dataclass(frozen=True)
class RegressionBasis:
    """Adapted feature map: monomials of the first ``n_coords`` Brownian coordinates.

    Features at node l depend only on increments with index < l, which is what
    makes regression on them a conditional expectation given the time-l history.
    ``ridge`` is scaled by trace(Phi' Phi)/B to stabilize near-collinear designs.
    """

    degree: int = 2
    n_coords: int | None = None
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0 or not 0 <= self.ridge < np.inf:
            raise ValueError("degree must be nonnegative and ridge finite and nonnegative")

    def design(self, ensemble: WienerEnsemble, t_index: int) -> np.ndarray:
        k = ensemble.n_noise if self.n_coords is None else min(self.n_coords, ensemble.n_noise)
        # one contiguous row per coordinate, so each feature is a contiguous product
        w = np.ascontiguousarray(ensemble.paths()[:, t_index, :k].T)
        combos = [
            combo
            for deg in range(1, self.degree + 1)
            for combo in itertools.combinations_with_replacement(range(k), deg)
        ]
        features = np.empty((1 + len(combos), w.shape[1]))
        features[0] = 1.0
        for row, combo in zip(features[1:], combos):
            row[:] = w[combo[0]]
            for j in combo[1:]:
                row *= w[j]
        return np.ascontiguousarray(features.T)


@dataclass(frozen=True)
class Regression:
    """One least-squares fit on a node's ``design``: ``fitted`` is ``design @ coef``."""

    fitted: np.ndarray
    coef: np.ndarray
    rank_deficient: bool
    design: np.ndarray


def conditional_expectation(
    ensemble: WienerEnsemble,
    basis: RegressionBasis,
    t_index: int,
    targets: np.ndarray,
) -> Regression:
    """L^2 projection of per-path targets onto the adapted feature span.

    Returns fitted values (functions of time-t_index features only) and the
    coefficient matrix.  With ridge = 0 a rank-deficient design falls back to
    the pseudo-inverse and is flagged.  With ridge > 0 the ridged Gram matrix
    of each (basis, node) is computed on the first fit and kept on the
    ensemble, so later fits at that node solve with the same matrix.
    """
    return _fit(ensemble, basis, t_index, basis.design(ensemble, t_index), targets)


def _fit(
    ensemble: WienerEnsemble,
    basis: RegressionBasis,
    t_index: int,
    phi: np.ndarray,
    targets: np.ndarray,
) -> Regression:
    """``conditional_expectation`` on the node's design ``phi``, built by the caller."""
    targets = np.asarray(targets, dtype=float)
    squeeze = targets.ndim == 1
    if squeeze:
        targets = targets[:, None]
    if not np.all(np.isfinite(targets)):
        raise ValueError("regression targets must be finite")
    if phi.shape[0] != targets.shape[0]:
        raise ValueError("targets and design have different path counts")
    b = phi.shape[1]
    rank_deficient = False
    if basis.ridge > 0:
        ridged = ensemble._ridged_gram.get((basis, t_index))
        if ridged is None:
            gram = phi.T @ phi
            lam = basis.ridge * np.trace(gram) / b
            ridged = ensemble._ridged_gram[basis, t_index] = gram + lam * np.eye(b)
        coef = np.linalg.solve(ridged, phi.T @ targets)
    else:
        coef, _, rank, _ = np.linalg.lstsq(phi, targets, rcond=None)
        rank_deficient = rank < b
    fitted = phi @ coef
    if squeeze:
        fitted = fitted[:, 0]
        coef = coef[:, 0]
    return Regression(fitted=fitted, coef=coef, rank_deficient=rank_deficient, design=phi)


def martingale_z_estimate(
    ensemble: WienerEnsemble,
    basis: RegressionBasis,
    t_index: int,
    next_value: np.ndarray,
) -> Regression:
    """Per-path estimate of the stochastic-integral density Z at node t_index.

    Regresses next_value (x) dW_l / dt_l onto time-l features.  The next value
    is first centered by its own fitted conditional expectation; the centering
    term is uncorrelated with dW_l, so the estimand is unchanged while the
    regression noise drops (deterministic next values give Z at ridge-bias
    scale instead of one Monte Carlo standard error).  Both fits use one
    design of the node.  Returns the second fit: ``fitted`` is Z, shape
    (M, N, K), and ``(design @ coef).reshape(M, N, K)`` rebuilds it bit for bit
    from the (B, N K) coefficients.
    """
    next_value = np.asarray(next_value, dtype=float)
    if next_value.ndim == 1:
        next_value = next_value[:, None]
    m, n = next_value.shape
    if t_index >= ensemble.grid.n_steps:
        raise ValueError("no increment lies to the right of the final node")
    dw = ensemble.increments[:, t_index, :]
    dt = float(ensemble.grid.deltas[t_index])
    phi = basis.design(ensemble, t_index)
    centered = next_value - _fit(ensemble, basis, t_index, phi, next_value).fitted
    targets = (centered[:, :, None] * dw[:, None, :] / dt).reshape(m, -1)
    fit = _fit(ensemble, basis, t_index, phi, targets)
    return replace(fit, fitted=fit.fitted.reshape(m, n, ensemble.n_noise))
