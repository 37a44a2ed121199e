"""Truncated cylindrical Wiener ensembles and least-squares conditional expectations.

Conditional expectations given the path history are realized as ridge-regularized
least-squares projections onto polynomial features of the current Brownian
coordinates (the standard regression Monte Carlo construction).  Everything is
deterministic given (seed, M, grid): paths are drawn in fixed blocks of 1024,
block b seeded by child b of ``SeedSequence(seed)``, so enlarging M appends new
paths without redrawing existing ones and two threads can draw the blocks.

The increments are stored node-major, ``increments[l, m, k]``, because a solve
reads them one node at a time in a right-to-left sweep.  The coordinates
W_{t_l} are not stored: ``WienerEnsemble.path_at`` rebuilds each one from a
checkpoint every ceil(sqrt(L)/3) nodes, as a backward sweep with checkpoints
does (Griewank & Walther, Algorithm 799: revolve, ACM TOMS 26, 2000).
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "TimeGrid",
    "WienerEnsemble",
    "RegressionBasis",
    "Regression",
    "sample_ensemble",
    "ensemble_nbytes",
    "conditional_expectation",
    "martingale_z_estimate",
]

_PATH_BLOCK = 1024
_SUB_BLOCK = 128  # paths per draw within a block; the normal stream is sequential


def _checkpoint_stride(n_steps: int) -> int:
    """ceil(sqrt(L)/3), in integers so that it holds for any L.

    The L/c + 1 checkpoints then hold about 3 sqrt(L) nodes, and a node is
    rebuilt from its checkpoint with fewer than c additions.
    """
    return math.isqrt(n_steps - 1) // 3 + 1


def _checkpoint_rows(increments: np.ndarray, c: int) -> np.ndarray:
    """W at nodes 0, c, 2c, ...: sequential sums of the node-major increments."""
    n_steps, shape = increments.shape[0], increments.shape[1:]
    rows = np.zeros((n_steps // c + 1,) + shape)
    w = np.zeros(shape)
    for j in range(n_steps):
        w += increments[j]
        if (j + 1) % c == 0:
            rows[(j + 1) // c] = w
    return rows


def ensemble_nbytes(n_steps: int, n_paths: int, n_noise: int) -> int:
    """Bytes an ensemble holds at most: its increments, checkpoints and one rebuilt node."""
    nodes = n_steps + (n_steps // _checkpoint_stride(n_steps) + 1) + 1
    return 8 * nodes * n_paths * n_noise


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

    ``increments[l, m, k]`` ~ Normal(0, dt_l), independent across all indices,
    stored node-major: ``increments[l]`` is one contiguous (M, K) block.
    W_{t_l} is read with ``path_at(l)``.  The private fields are lazy caches
    of values derived from the increments: the checkpoints W at every c-th
    node, c = ceil(sqrt(L)/3), and the per-node ridged Gram matrices.  No fit
    leaves any other state here.  ``dataclasses.replace`` starts the caches
    empty.  ``solver.global_solve`` reads one ensemble from two threads: the
    checkpoints are assigned only once filled, and the threads never touch
    one node's Gram key at the same time.  Its helper fits converged windows,
    whose keys are stored, while the main thread fits the next window, to
    the left; and the two threads share that window's nodes, each node on
    one thread, in batches each joined before the next one starts.
    """

    grid: TimeGrid
    increments: np.ndarray
    seed: int
    _checkpoints: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # (basis, t_index) -> that node's ridged Gram matrix, set by its first ridge fit
    _ridged_gram: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[1]

    @property
    def n_noise(self) -> int:
        return self.increments.shape[2]

    def path_at(self, l: int) -> np.ndarray:
        """W_{t_l}, a new (M, K) array that the caller owns; ``path_at(0)`` is zero.

        The value is rebuilt forward from the checkpoint at or below l by the
        same sequential additions as ``np.cumsum`` of the increments, so it is
        bit-identical to it.
        """
        n_steps = self.increments.shape[0]
        if not 0 <= l <= n_steps:
            raise IndexError(f"node {l} is outside 0..{n_steps}")
        c = _checkpoint_stride(n_steps)
        if self._checkpoints is None:
            # assigned once filled: a second thread never sees a partial fill
            self._checkpoints = _checkpoint_rows(self.increments, c)
        w = self._checkpoints[l // c].copy()
        for j in range(l // c * c, l):
            w += self.increments[j]
        return w


def sample_ensemble(grid: TimeGrid, k: int, m: int, seed: int) -> WienerEnsemble:
    """Draw a reproducible ensemble; identical seeds give bit-identical arrays.

    Each block of 1024 paths is drawn from its own child generator in draws
    of 128 paths; the normal stream is sequential, so these are the values of
    one (1024, L, K) draw, scaled by sqrt(dt) and written node-major into ``out``.
    The calling thread draws the even blocks and a worker, started and joined
    here, the odd ones: the fills release the GIL and write disjoint paths.
    """
    if k < 1 or m < 1:
        raise ValueError("need at least one path and one noise coordinate")
    n_steps = grid.n_steps
    out = np.empty((n_steps, m, k))
    scale = np.sqrt(grid.deltas)[:, None]
    # one path's K values at one node are one record, so the transposing copy
    # moves 8 K bytes per element
    record = np.dtype((np.void, 8 * k))
    out_rec = out.view(record)[:, :, 0]
    children = np.random.SeedSequence(seed).spawn((m + _PATH_BLOCK - 1) // _PATH_BLOCK)
    # a buffer per thread, both allocated here: one made on the worker raised peak RSS
    bufs = np.empty((2, _SUB_BLOCK, n_steps, k))

    def draw(parity):
        buf = bufs[parity]
        for b in range(parity, len(children), 2):
            rng = np.random.default_rng(children[b])
            for lo in range(b * _PATH_BLOCK, min((b + 1) * _PATH_BLOCK, m), _SUB_BLOCK):
                n = min(_SUB_BLOCK, m - lo)
                rng.standard_normal(out=buf[:n])
                buf[:n] *= scale
                out_rec[:, lo : lo + n] = buf[:n].view(record)[:, :, 0].T

    with ThreadPoolExecutor(max_workers=1) as worker:  # joined on leaving, raised or not
        odd = worker.submit(draw, 1)
        draw(0)
        odd.result()
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

    def _coords(self, n_noise: int) -> int:
        return n_noise if self.n_coords is None else min(self.n_coords, n_noise)

    def n_features(self, n_noise: int) -> int:
        """B, the number of columns of ``design`` on an ensemble of n_noise coordinates."""
        return math.comb(self._coords(n_noise) + self.degree, self.degree)

    def design(self, ensemble: WienerEnsemble, t_index: int) -> np.ndarray:
        k = self._coords(ensemble.n_noise)
        # one contiguous row per coordinate, so each feature is a contiguous product
        w = np.ascontiguousarray(ensemble.path_at(t_index)[:, :k].T)
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
    design: np.ndarray | None = None,
) -> Regression:
    """Per-path estimate of the stochastic-integral density Z at node t_index.

    Regresses next_value (x) dW_l / dt_l onto time-l features.  The next value
    is first centered by its own fitted conditional expectation; the centering
    term is uncorrelated with dW_l, so the estimand is unchanged while the
    regression noise drops (deterministic next values give Z at ridge-bias
    scale instead of one Monte Carlo standard error).  Both fits use one
    design of the node: ``design`` if the caller holds it, else built here.
    Returns the second fit: ``fitted`` is Z, shape
    (M, N, K), and ``(design @ coef).reshape(M, N, K)`` rebuilds it bit for bit
    from the (B, N K) coefficients.
    """
    next_value = np.asarray(next_value, dtype=float)
    if next_value.ndim == 1:
        next_value = next_value[:, None]
    m, n = next_value.shape
    if t_index >= ensemble.grid.n_steps:
        raise ValueError("no increment lies to the right of the final node")
    dw = ensemble.increments[t_index]
    dt = float(ensemble.grid.deltas[t_index])
    phi = basis.design(ensemble, t_index) if design is None else design
    centered = next_value - _fit(ensemble, basis, t_index, phi, next_value).fitted
    targets = (centered[:, :, None] * dw[:, None, :] / dt).reshape(m, -1)
    fit = _fit(ensemble, basis, t_index, phi, targets)
    return replace(fit, fitted=fit.fitted.reshape(m, n, ensemble.n_noise))
