"""Solver mechanics: shift, window selection, Picard maps, pasting, residuals."""
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mildbsde.models
import mildbsde.solver
import mildbsde.wiener
from mildbsde.solver import (
    BoundedDriver,
    BsdeProblem,
    DissipativeDrift,
    NonFiniteDrift,
    OuterDivergence,
    PicardDivergence,
    SolverReport,
    ValidationError,
    WindowCollapse,
    _bound_first,
    _ensemble_l2,
    _path_max,
    _picard_targets,
    _project_to_ball,
    _shared,
    apriori_h_bound,
    exponential_shift,
    general_solve,
    local_solve,
    plan_solve,
    residual,
    select_local_radius_and_delta,
    zero_drift,
)
from mildbsde.spectral import (
    DiagonalOperator,
    EmpiricalConstants,
    _step_factors,
    h_alpha_norm_batch,
    h_alpha_norm_bound,
)
from mildbsde.wiener import (
    Regression, RegressionBasis, TimeGrid, martingale_z_estimate, sample_ensemble,
)
from oracles import drop_node, kept_solve


def w_end(ensemble):
    """W_T of the first noise coordinate, shape (M, 1)."""
    return ensemble.path_at(ensemble.grid.n_steps)[:, :1]


def make_problem(op, terminal, bound=math.inf, f0=None, f1=None, noise=1, alpha=0.0, T=1.0):
    prob = BsdeProblem(
        operator=op, horizon=T, alpha=alpha, terminal=terminal,
        terminal_bound=bound, f0=f0, f1=f1, noise_dim=noise,
    )
    prob.validated = True
    return prob


@pytest.fixture
def window_cap(monkeypatch):
    """``window_cap(length)`` caps every window at ``length`` where the solver
    turns a window length into grid steps; a cap below one step refines the grid."""
    window_steps = mildbsde.solver._window_steps

    def cap(length):
        monkeypatch.setattr(
            mildbsde.solver, "_window_steps",
            lambda delta, dt, n_steps: window_steps(min(delta, length), dt, n_steps),
        )

    return cap


def window_designs(ensemble, basis, start, end):
    """The designs ``global_solve`` hands ``local_solve`` for nodes start..end-1."""
    return [basis.design(ensemble, l) for l in range(start, end)]


def constants(alpha=0.0, horizon=1.0, m_alpha=1.0, c_alpha=1.0, g=1.0):
    return EmpiricalConstants(
        alpha=alpha, horizon=horizon, m_alpha=m_alpha, c_alpha=c_alpha, g_holder=g
    )


class TestClosedFormBounds:
    def test_apriori_zero_inputs(self):
        assert apriori_h_bound(0.0, 0.0, 0.0, 3.0) == 0.0

    def test_apriori_degenerate_horizon(self):
        assert apriori_h_bound(1.0, 0.0, 0.0, 0.0) == 1.0

    def test_apriori_reference_value(self):
        # sqrt(3 (1 + 2 e^2)) for unit data on a unit horizon
        got = apriori_h_bound(1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(math.sqrt(3.0 * (1.0 + 2.0 * math.e ** 2)), rel=1e-12)
        assert got == pytest.approx(6.88, abs=0.01)

    def test_apriori_rejects_negative(self):
        with pytest.raises(ValueError):
            apriori_h_bound(-1.0, 0.0, 0.0, 1.0)


class TestExponentialShift:
    def test_zero_shift_is_identity(self):
        op = DiagonalOperator([1.0])
        prob = make_problem(op, w_end, bound=2.0)
        assert exponential_shift(prob, 0.0) is prob

    def test_negative_shift_rejected(self):
        # the solver shifts by a positive monotonicity constant only
        prob = make_problem(DiagonalOperator([1.0]), w_end, bound=2.0)
        with pytest.raises(ValueError, match="lam >= 0"):
            exponential_shift(prob, -0.5)

    def test_pure_drift_cancellation(self):
        # f0(y) = mu y shifted by lambda = mu vanishes
        mu = 0.8
        f0 = DissipativeDrift(
            fn=lambda t, y: mu * y, growth_scale=mu, growth_power=2.0,
            monotonicity=mu, lipschitz=mu,
        )
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end, bound=1.0, f0=f0)
        shifted = exponential_shift(prob, mu)
        rng = np.random.default_rng(0)
        for t in (0.0, 0.4, 1.0):
            y = rng.standard_normal((20, 1))
            assert np.max(np.abs(shifted.f0(t, y))) < 1e-12
        assert shifted.f0.monotonicity == 0.0

    def test_shifted_drift_is_dissipative(self):
        # random monotone drift with constant mu turns 0-dissipative
        mu = 1.0
        f0 = DissipativeDrift(
            fn=lambda t, y: mu * y - y ** 3, growth_scale=2.0, growth_power=3.0,
            monotonicity=mu, lipschitz=lambda r: mu + 3 * r ** 2,
        )
        op = DiagonalOperator([0.5])
        prob = make_problem(op, w_end, bound=1.0, f0=f0)
        shifted = exponential_shift(prob, mu)
        rng = np.random.default_rng(1)
        for t in (0.0, 0.3, 0.9):
            y1 = rng.standard_normal((200, 1))
            y2 = rng.standard_normal((200, 1))
            inner = np.sum(
                (shifted.f0(t, y1) - shifted.f0(t, y2)) * (y1 - y2), axis=-1
            )
            assert inner.max() <= 1e-10

    def test_terminal_and_driver_scaling(self):
        op = DiagonalOperator([1.0])
        f1 = BoundedDriver(fn=lambda t, y, z: np.tanh(y), lipschitz_const=1.0, bound=0.5)
        prob = make_problem(op, lambda e: 0.3 * np.ones((e.n_paths, 1)), bound=0.3, f1=f1)
        lam = 0.5
        shifted = exponential_shift(prob, lam)
        assert shifted.terminal_bound == pytest.approx(0.3 * math.exp(lam))
        assert shifted.f1.bound == pytest.approx(0.5 * math.exp(lam))
        assert shifted.f1.lipschitz_const == pytest.approx(1.0)  # invariant under shift


class TestWindowSelection:
    def _prob_with(self, lip, s=0.0, c=0.0, gamma=1.5, alpha=0.0, bound=1.0):
        f0 = DissipativeDrift(
            fn=lambda t, y: np.zeros_like(y), growth_scale=s, growth_power=gamma,
            lipschitz=lip,
        )
        f1 = None
        if c > 0:
            f1 = BoundedDriver(fn=lambda t, y, z: np.zeros_like(y), lipschitz_const=0.0, bound=c)
        op = DiagonalOperator([1.0])
        return make_problem(op, w_end, bound=bound,
                            f0=f0, f1=f1, alpha=alpha)

    def test_contraction_window_unit(self):
        # G L_R = 0.5 gives (2 G L_R)^(-1/(1-alpha)) = 1 for any alpha
        for alpha in (0.0, 0.3, 0.6):
            prob = self._prob_with(lip=0.5, alpha=alpha)
            sel = select_local_radius_and_delta(prob, 1.0, constants(alpha=alpha, g=1.0))
            assert sel.delta_lip == pytest.approx(1.0)

    def test_contraction_window_quarter(self):
        prob = self._prob_with(lip=1.0, alpha=0.5)
        sel = select_local_radius_and_delta(prob, 1.0, constants(alpha=0.5, g=1.0))
        assert sel.delta_lip == pytest.approx(0.25)

    def test_drift_free_unconstrained(self):
        prob = self._prob_with(lip=0.0, s=0.0, c=0.0)
        sel = select_local_radius_and_delta(prob, 1.0, constants())
        assert math.isinf(sel.delta_lip) and math.isinf(sel.delta_ball)
        assert math.isinf(sel.delta)

    def test_radius_formula(self):
        prob = self._prob_with(lip=0.5)
        sel = select_local_radius_and_delta(prob, 3.0, constants(m_alpha=1.5))
        assert sel.radius == pytest.approx(2.0 * 1.5 * 3.0)

    def test_ball_window_formula(self):
        # delta_ball = [R (1-alpha) / (2 C_a S ((1+R^g) + C))]^(1/(1-alpha))
        prob = self._prob_with(lip=0.0, s=2.0, c=0.5, gamma=1.8, alpha=0.5)
        sel = select_local_radius_and_delta(prob, 1.0, constants(alpha=0.5, c_alpha=1.0))
        r = sel.radius
        expect = (r * 0.5 / (2.0 * 1.0 * 2.0 * ((1.0 + r ** 1.8) + 0.5))) ** 2.0
        assert sel.delta_ball == pytest.approx(expect, rel=1e-12)

    def test_unbounded_terminal_with_drift_collapses(self):
        prob = self._prob_with(lip=1.0, s=1.0, bound=math.inf)
        with pytest.raises(WindowCollapse):
            select_local_radius_and_delta(prob, math.inf, constants())

    def test_overflowing_ball_power_collapses(self):
        # R^gamma overflows a float: the ball window is 0, a named collapse
        prob = self._prob_with(lip=1.0, s=1.0, gamma=3.0, bound=1e120)
        with pytest.raises(WindowCollapse, match="window length collapsed"):
            select_local_radius_and_delta(prob, 1e120, constants())


@pytest.fixture(scope="module")
def small_ensemble():
    grid = TimeGrid.uniform(1.0, 50)
    return sample_ensemble(grid, 1, 20000, seed=101)


class TestPicardMap:
    def test_deterministic_terminal_is_semigroup_flow(self, small_ensemble):
        # no drift, deterministic terminal: Y(t) = exp((T-t)A) xi on every path
        op = DiagonalOperator([2.0])
        prob = make_problem(op, lambda e: np.ones((e.n_paths, 1)), bound=1.0)
        sol, _ = kept_solve(prob, small_ensemble, RegressionBasis(degree=2))
        times = small_ensemble.grid.times
        for l in range(51):
            expect = math.exp(-2.0 * (times[50] - times[l]))
            np.testing.assert_allclose(sol.y[l], expect, rtol=1e-6)
        assert np.max(np.abs(sol.z)) < 1e-6

    def test_terminal_row_exact(self, small_ensemble):
        op = DiagonalOperator([1.0])
        prob = make_problem(op, w_end)
        basis = RegressionBasis(degree=2)
        xi = w_end(small_ensemble)
        factors = _step_factors(op, small_ensemble.grid.deltas)
        y, _, _ = local_solve(prob, small_ensemble, basis, factors, 30, 50, xi, radius=math.inf,
                              tol=1e-9, designs=window_designs(small_ensemble, basis, 30, 50))
        np.testing.assert_array_equal(y[-1], xi)

    def test_brownian_martingale_representation(self, small_ensemble):
        # A = 0, terminal W_T: Y(t) = W_t and Z = 1
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end)
        sol, _ = kept_solve(prob, small_ensemble, RegressionBasis(degree=2))
        w = np.stack([small_ensemble.path_at(l)[:, 0]
                      for l in range(small_ensemble.grid.n_steps + 1)])
        err = np.sqrt(np.mean((sol.y[:, :, 0] - w) ** 2, axis=1))
        scale = np.sqrt(np.mean(w[1:] ** 2, axis=1))
        assert np.all(err[1:] <= 0.05 * np.maximum(scale, 0.5))
        z_means = sol.z[:, :, 0, 0].mean(axis=1)
        assert np.all(np.abs(z_means - 1.0) < 0.05)

    def test_projected_states_pass_ball_check(self):
        # rescaling onto the radius leaves some states a few ulp outside it,
        # never more than the relative 1e-9 that the ball allows
        op = DiagonalOperator(np.arange(1.0, 6.0))
        radius = 0.3779523779525669
        for alpha in (0.0, 0.3):
            prob = make_problem(op, lambda e: np.zeros((e.n_paths, 5)), bound=1.0, alpha=alpha)
            y = np.random.default_rng(0).standard_normal((1000, 5))
            assert _project_to_ball(prob, y, radius)[0] == 1000
            worst = float(h_alpha_norm_batch(op, alpha, y).max())
            assert worst <= radius * (1.0 + 1e-9)
            assert worst == pytest.approx(radius, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.one_of(st.just(0.0), st.floats(0.01, 0.95)),
        spectrum=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 3.0, 3.0, 40.0, 900.0]), min_size=1, max_size=7
        ),
        scales=st.lists(st.one_of(st.just(1.0), st.floats(0.2, 5.0)), min_size=1, max_size=12),
        radius=st.floats(0.05, 5.0),
        seed=st.integers(0, 2 ** 16),
    )
    def test_projection_keeps_states_in_ball(self, alpha, spectrum, scales, radius, seed):
        # the projection is the one place that keeps the drift in its ball:
        # afterwards every state of the node is inside it up to the relative
        # 1e-9 of the terminal-bound check, and the count is the number of
        # states whose exact norm was above the radius
        op = DiagonalOperator(spectrum)
        prob = make_problem(
            op, lambda e: np.zeros((e.n_paths, op.dimension)), bound=1.0, alpha=alpha
        )
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((len(scales), op.dimension))
        before = h_alpha_norm_batch(op, alpha, states)
        # scale each state to a multiple of the radius, straddling it
        states *= (radius * np.asarray(scales) / np.maximum(before, 1e-300))[:, None]
        outside = int(np.count_nonzero(h_alpha_norm_batch(op, alpha, states) > radius))
        assert _project_to_ball(prob, states, radius)[0] == outside
        assert float(h_alpha_norm_batch(op, alpha, states).max()) <= radius * (1.0 + 1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_bound_first_projection_equals_exact_projection(self, alpha):
        # states straddling the radius: eigenvector and repeated-eigenvalue
        # states a few ulp either side of it, where the bound and the exact
        # norm can round in either order, and mixed states whose bound exceeds
        # the radius while their exact norm does not
        def exact_projection(op, alpha, y, radius):
            norms = h_alpha_norm_batch(op, alpha, y)
            mask = norms > radius
            count = int(np.count_nonzero(mask))
            if count:
                scale = np.where(mask, radius / np.maximum(norms, 1e-300), 1.0)
                y *= scale[..., None]
            return count

        op = DiagonalOperator(np.r_[np.full(8, 3.0), 0.0, 1.0, 40.0, 900.0])
        prob = make_problem(op, lambda e: np.zeros((e.n_paths, 12)), bound=1.0, alpha=alpha)
        radius = 0.7
        rng = np.random.default_rng(3)
        repeated = np.zeros((400, 12))
        repeated[:, :8] = rng.standard_normal((400, 8))
        eigen = np.repeat(np.eye(12), 20, axis=0)
        mixed = rng.standard_normal((400, 12)) * rng.uniform(0.0, 1.0, (400, 1)) ** 4
        states = np.concatenate([repeated, eigen, mixed])
        exact = h_alpha_norm_batch(op, alpha, states)
        ulps = rng.integers(-4, 5, states.shape[0])
        ulps[-400:] = 0
        scale = radius / exact * (1.0 + ulps * np.finfo(float).eps)
        scale[-400:] *= rng.uniform(0.995, 1.0, 400)  # mixed states just inside
        y = states * scale[:, None]
        norms = h_alpha_norm_batch(op, alpha, y)
        assert (norms > radius).any() and (norms <= radius).any()
        if alpha > 0:
            bound = h_alpha_norm_bound(op, alpha, y)
            assert ((bound > radius) & (norms <= radius)).any()

        y_exact = y.copy()
        count, _ = _project_to_ball(prob, y, radius)
        count_exact = exact_projection(op, alpha, y_exact, radius)
        assert y.tobytes() == y_exact.tobytes()
        assert count == count_exact > 0

    def test_vanishing_drift_matches_terminal_term(self, small_ensemble):
        # f0(t, 0) = 0 and U = 0: the map returns the pure terminal projection
        op = DiagonalOperator([1.5])
        f0 = DissipativeDrift(
            fn=lambda t, y: -(y ** 3), growth_scale=1.0, growth_power=3.0, lipschitz=1.0
        )
        prob = make_problem(op, lambda e: np.ones((e.n_paths, 1)), bound=1.0, f0=f0)
        xi = np.ones((small_ensemble.n_paths, 1))
        u = np.zeros((31, small_ensemble.n_paths, 1))
        factors = _step_factors(op, small_ensemble.grid.deltas)
        times = small_ensemble.grid.times
        with_drift = _picard_targets(prob, factors, times, 20, 50, xi, u, None)
        without = _picard_targets(prob, factors, times, 20, 50, xi, None, None)
        np.testing.assert_allclose(with_drift, without, atol=1e-12)


def _pruned_window(variant, rng):
    """A (12, 60, 8) window of states that stresses one way of pruning a maximum."""
    x = rng.standard_normal((12, 60, 8)) * rng.uniform(0.1, 1.0, (12, 1, 1))
    if variant == "tied":  # two nodes, and two states in each, share the largest bound
        x[1] *= 2.0
        x[1, 7] = x[1, 2]
        x[3] = x[1]
    elif variant == "ulp":  # the largest nodes and states a few ulp apart
        # on one repeated eigenvalue, where bound and norm agree up to rounding
        base = np.zeros((60, 8))
        base[:, :4] = 2.0 * rng.standard_normal((60, 4))
        base[1:4] = base[0] * (1.0 + np.arange(1, 4)[:, None] * np.finfo(float).eps)
        for k, node in enumerate(range(4, 8)):
            x[node] = base * (1.0 + (k - 2) * np.finfo(float).eps)
    elif variant == "weight0":  # the largest node sits at t = T, where C2 weighs 0
        x[-1] *= 5.0
    elif variant == "zero":
        x[:] = 0.0
    elif variant == "nan":  # in a node that is neither first nor largest
        x[6, 10, 2] = np.nan
    return x


class TestBoundFirstMaxima:
    """Each maximum pruned by ``_bound_first`` equals its whole-batch formula, to the bit."""

    op = DiagonalOperator(np.r_[np.full(4, 3.0), 0.0, 1.0, 40.0, 900.0])
    # the C2 fit's weights (T - t)^(theta - alpha): 0 at t = T
    weights = np.linspace(1.0, 0.0, 12) ** 0.5

    @staticmethod
    def same(got, want):
        return float(got) == float(want) or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("variant", ["tied", "ulp", "weight0", "zero", "nan"])
    def test_pruned_maxima_equal_whole_batch(self, variant, alpha):
        op, w = self.op, self.weights
        x = _pruned_window(variant, np.random.default_rng(5))
        norms = h_alpha_norm_batch(op, alpha, x)  # (12, 60)
        # local_solve's Picard distance
        distance = np.sqrt(np.mean(norms ** 2, axis=1)).max()
        assert self.same(_bound_first(op, alpha, x, fold=_ensemble_l2).max(), distance)
        # the node exit's per-node theta max
        for l in range(x.shape[0]):
            assert self.same(_bound_first(op, alpha, x[l]).max(), norms[l].max())
        # global_solve's C2 fit
        c2 = (norms.max(axis=1) * w).max()
        assert self.same(_bound_first(op, alpha, x, fold=_path_max, weights=w).max(), c2)
        assert math.isnan(distance) == math.isnan(c2) == (variant == "nan")
        if variant == "zero":
            assert distance == c2 == 0.0


class TestLocalSolve:
    def test_drift_free_converges_immediately(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end)
        basis = RegressionBasis(degree=2)
        xi = w_end(small_ensemble)
        factors = _step_factors(op, small_ensemble.grid.deltas)
        _, stats, _ = local_solve(prob, small_ensemble, basis, factors, 0, 50, xi,
                                  radius=math.inf, tol=1e-9,
                                  designs=window_designs(small_ensemble, basis, 0, 50))
        assert stats.iterations == 1
        assert stats.distances == [0.0]

    def test_geometric_decay_and_uniqueness(self, small_ensemble):
        # cubic dissipative drift on a short window: distances decay geometrically
        op = DiagonalOperator([0.5])
        f0 = DissipativeDrift(
            fn=lambda t, y: -(y ** 3), growth_scale=1.0, growth_power=3.0,
            lipschitz=lambda r: 3.0 * r ** 2,
        )
        prob = make_problem(op, lambda e: np.tanh(w_end(e)), bound=1.0, f0=f0)
        basis = RegressionBasis(degree=2)
        xi = np.tanh(w_end(small_ensemble))
        factors = _step_factors(op, small_ensemble.grid.deltas)
        _, stats, _ = local_solve(prob, small_ensemble, basis, factors, 30, 50, xi, radius=3.0,
                                  tol=1e-10, designs=window_designs(small_ensemble, basis, 30, 50))
        assert all(f <= 0.6 for f in stats.factors)

    @staticmethod
    def _cubic_window(radius):
        # a cubic drift on the 20-node window [30, 50], alpha = 0.2
        ens = sample_ensemble(TimeGrid.uniform(1.0, 50), 1, 400, seed=7)
        op = DiagonalOperator([0.5])
        f0 = DissipativeDrift(
            fn=lambda t, y: -(y ** 3), growth_scale=1.0, growth_power=3.0,
            lipschitz=lambda r: 3.0 * r ** 2,
        )
        prob = make_problem(
            op, lambda e: np.tanh(2.0 * w_end(e)), bound=1.0, f0=f0, alpha=0.2
        )
        basis = RegressionBasis(degree=2)
        args = (prob, ens, basis, _step_factors(op, ens.grid.deltas), 30, 50,
                prob.terminal(ens), radius)
        return args, window_designs(ens, basis, 30, 50)

    @pytest.mark.parametrize("radius", [3.0, 1.0])
    def test_exact_norms_only_where_a_bound_can_decide(self, monkeypatch, radius):
        # each Picard step norms exactly the node with the largest distance
        # bound and the nodes whose bound reaches that node's exact distance,
        # and the projection only the states whose bound reaches the radius
        # (within the slack); the distances are the whole-window ones, bit for
        # bit.  The tighter radius clips some states.
        calls, near, nodes = [], [], []
        norm, project = mildbsde.solver.h_alpha_norm_batch, mildbsde.solver._project_to_ball

        def counted_norm(op, alpha, x):
            calls.append(x.shape[:-1])
            return norm(op, alpha, x)

        def recorded_projection(problem, y_l, radius):
            # without a helper the nodes of a pass run in order
            bound = h_alpha_norm_bound(problem.operator, problem.alpha, y_l)
            near.append(int(np.count_nonzero(bound * (1.0 + 1e-12) > radius)))
            projected = project(problem, y_l, radius)
            nodes.append(y_l.copy())
            return projected

        monkeypatch.setattr(mildbsde.solver, "h_alpha_norm_batch", counted_norm)
        monkeypatch.setattr(mildbsde.solver, "_project_to_ball", recorded_projection)
        args, designs = self._cubic_window(radius)
        prob, ens = args[:2]
        op = prob.operator
        _, stats, _ = local_solve(*args, tol=1e-10, designs=designs)

        def node_distances(norms):
            return np.sqrt(np.mean(norms ** 2, axis=1))

        assert len(nodes) == 20 * (stats.iterations + 1)
        passes = [np.stack(nodes[k:k + 20]) for k in range(0, len(nodes), 20)]
        whole, decisive = [], 0
        for prev, cur in zip(passes, passes[1:]):
            diff = cur - prev
            exact = node_distances(h_alpha_norm_batch(op, 0.2, diff))
            bound = node_distances(h_alpha_norm_bound(op, 0.2, diff))
            whole.append(float(exact.max()))
            top = int(np.argmax(bound))
            others = np.delete(bound, top)
            decisive += 1 + int(np.count_nonzero(others * (1.0 + 1e-12) > exact[top]))
        assert stats.distances == whole
        # nodes (k, M) for the distance, single states (k,) for the projection
        assert sum(math.prod(c) for c in calls if len(c) == 2) == decisive * ens.n_paths
        assert decisive <= 2 * stats.iterations  # of the window's 20 nodes
        projected = sum(math.prod(c) for c in calls if len(c) == 1)
        assert projected == sum(near)
        assert (stats.ball_clipped > 0) == (radius < 3.0)
        assert (projected > 0) == (radius < 3.0)

    @staticmethod
    def _drift_free_window(small_ensemble):
        op = DiagonalOperator([0.5, 2.0])
        prob = make_problem(
            op, lambda e: np.tanh(w_end(e)) * [1.0, 0.5], bound=2.0, alpha=0.3
        )
        factors = _step_factors(op, small_ensemble.grid.deltas)
        basis = RegressionBasis(degree=2)
        return (prob, small_ensemble, basis, factors, 30, 50,
                prob.terminal(small_ensemble)), window_designs(small_ensemble, basis, 30, 50)

    def test_exact_repeat_stops_with_alpha(self, small_ensemble):
        # without a drift the first step repeats the start bit for bit: the
        # pruned distance is 0.0, which stops the loop
        args, designs = self._drift_free_window(small_ensemble)
        _, stats, _ = local_solve(*args, radius=math.inf, tol=1e-12, designs=designs)
        assert stats.iterations == 1
        assert stats.distances == [0.0]

    def test_nan_state_is_not_convergence(self, small_ensemble, monkeypatch):
        # a NaN in one state of a non-leading node makes every distance NaN,
        # which neither stops the loop nor counts as divergence: it runs out
        project, seen = mildbsde.solver._project_to_ball, []

        def plant_nan(problem, y_l, radius):
            # without a helper the 20 nodes of a pass run in order: node 5 is the sixth
            projected = project(problem, y_l, radius)
            if len(seen) % 20 == 5:
                y_l[0, 1] = np.nan
            seen.append(y_l)
            return projected

        monkeypatch.setattr(mildbsde.solver, "_project_to_ball", plant_nan)
        monkeypatch.setattr(mildbsde.solver, "_MAX_ITER", 4)
        args, designs = self._drift_free_window(small_ensemble)
        with pytest.raises(PicardDivergence, match=r"no convergence .*\(last distance nan\)"):
            local_solve(*args, radius=3.0, tol=1e-12, designs=designs)

    def test_each_pass_is_two_batches(self, monkeypatch):
        # a pass shares its drift terms, then one step per node (fit,
        # projection, difference), with the helper: two batches per pass,
        # and the window of a solve without a helper, bit for bit
        shared, batches = mildbsde.solver._shared, []

        def counted(helper, fn, nodes):
            batches.append(len(nodes))
            return shared(helper, fn, nodes)

        args, designs = self._cubic_window(1.0)
        alone, alone_stats, alone_fits = local_solve(*args, tol=1e-10, designs=designs)
        monkeypatch.setattr(mildbsde.solver, "_shared", counted)
        with ThreadPoolExecutor(max_workers=1) as helper:
            y, stats, fits = local_solve(*args, tol=1e-10, designs=designs, helper=helper)
        assert stats.iterations > 1 and stats.ball_clipped > 0
        assert batches == [20] * (2 * (stats.iterations + 1))
        assert y.tobytes() == alone.tobytes()
        assert stats == alone_stats
        for (coef, scale), (alone_coef, alone_scale) in zip(fits, alone_fits):
            assert coef.tobytes() == alone_coef.tobytes()
            assert (scale is None) == (alone_scale is None)
            assert scale is None or scale.tobytes() == alone_scale.tobytes()

    def test_join_row_stays_in_every_pass(self, monkeypatch):
        # no step writes the join row, although some join states lie outside
        # the ball the other rows are clipped into: each pass's array, the
        # returned one and those the differences overwrote, keeps the join bits
        targets, arrays = mildbsde.solver._picard_targets, []

        def recorded(*args):
            arrays.append(targets(*args))
            return arrays[-1]

        monkeypatch.setattr(mildbsde.solver, "_picard_targets", recorded)
        args, designs = self._cubic_window(0.5)
        prob, join = args[0], args[6]
        assert (h_alpha_norm_batch(prob.operator, prob.alpha, join) > 0.5).any()
        y, stats, _ = local_solve(*args, tol=1e-10, designs=designs)
        assert stats.ball_clipped > 0
        assert len(arrays) == stats.iterations + 1 and arrays[-1] is y
        for array in arrays:
            assert array[-1].tobytes() == join.tobytes()

    def test_divergent_iteration_raises(self, small_ensemble, monkeypatch):
        # anti-dissipative expanding drift with an over-long window
        op = DiagonalOperator([0.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: 25.0 * y, growth_scale=25.0, growth_power=2.0,
            monotonicity=25.0, lipschitz=25.0,
        )
        prob = make_problem(op, lambda e: w_end(e) * 0.1, bound=math.inf, f0=f0)
        basis = RegressionBasis(degree=2)
        xi = 0.1 * w_end(small_ensemble)
        factors = _step_factors(op, small_ensemble.grid.deltas)
        monkeypatch.setattr(mildbsde.solver, "_MAX_ITER", 8)
        with pytest.raises(PicardDivergence):
            local_solve(prob, small_ensemble, basis, factors, 0, 50, xi, radius=math.inf,
                        tol=1e-12, designs=window_designs(small_ensemble, basis, 0, 50))


class TestGlobalSolve:
    def test_requires_validation_flag(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = BsdeProblem(
            operator=op, horizon=1.0, alpha=0.0,
            terminal=w_end, terminal_bound=math.inf,
        )
        with pytest.raises(ValidationError):
            general_solve(prob, small_ensemble, RegressionBasis(), drop_node)

    def test_terminal_bit_exact_and_z_shape(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end)
        sol, rep = kept_solve(prob, small_ensemble, RegressionBasis(degree=2))
        np.testing.assert_array_equal(sol.y[-1], w_end(small_ensemble))
        assert sol.z.shape == (50, small_ensemble.n_paths, 1, 1)
        assert len(rep.windows) == 1  # drift-free: one window covers [0, T]

    def test_window_joins_exact_and_schedule(self, window_cap):
        # bounded drift forces several windows; pasted values agree exactly
        grid = TimeGrid.uniform(1.0, 40)
        ens = sample_ensemble(grid, 1, 3000, seed=55)
        op = DiagonalOperator([1.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0,
            lipschitz=1.1,
        )
        prob = make_problem(op, lambda e: 0.5 * np.tanh(w_end(e)),
                            bound=0.5, f0=f0)
        window_cap(0.15)
        rep = general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert len(rep.windows) > 1
        # joins share the same stored values: reconstruct per-window ends
        for w in rep.windows:
            assert w.end_index - w.start_index >= 1
        starts = sorted(w.start_index for w in rep.windows)
        ends = sorted(w.end_index for w in rep.windows)
        assert starts[0] == 0 and ends[-1] == 40
        assert starts[1:] == ends[:-1]  # contiguous pasting
        assert len(rep.windows) == rep.window_count_formula
        assert rep.residual_value < 0.1

    def test_z_recovered_per_window_matches_estimator(self, monkeypatch, window_cap):
        # zero monotonicity (no shift), at least three windows, and one forced
        # halving: Z at every node, joins included, is the estimator applied
        # to the pasted Y at the next node
        grid = TimeGrid.uniform(1.0, 40)
        ens = sample_ensemble(grid, 1, 2000, seed=57)
        op = DiagonalOperator([1.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0,
            lipschitz=1.1,
        )
        prob = make_problem(op, lambda e: 0.5 * np.tanh(w_end(e)),
                            bound=0.5, f0=f0)
        solve = mildbsde.solver.local_solve
        calls = {"n": 0}

        def first_call_diverges(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise PicardDivergence("forced on the first window")
            return solve(*args, **kwargs)

        monkeypatch.setattr(mildbsde.solver, "local_solve", first_call_diverges)
        basis = RegressionBasis(degree=2)
        window_cap(0.15)
        sol, rep = kept_solve(prob, ens, basis)
        assert rep.lambda_shift == 0.0 and rep.grid_refined == 1
        assert len(rep.windows) >= 3
        assert [w.halvings for w in rep.windows] == [1] + [0] * (len(rep.windows) - 1)
        decay, _ = _step_factors(op, grid.deltas)
        assert sol.z.shape == (40, ens.n_paths, 1, 1)
        for l in range(grid.n_steps):
            expect = martingale_z_estimate(ens, basis, l, decay[l] * sol.y[l + 1]).fitted
            np.testing.assert_array_equal(sol.z[l], expect)

    def test_each_design_built_once_without_f1(self, monkeypatch, window_cap):
        # every Picard pass and Z fit of a node reads the design its window built
        ens = sample_ensemble(TimeGrid.uniform(1.0, 40), 1, 2000, seed=57)
        f0 = DissipativeDrift(
            fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0, lipschitz=1.1,
        )
        prob = make_problem(DiagonalOperator([1.0]), lambda e: 0.5 * np.tanh(w_end(e)),
                            bound=0.5, f0=f0)
        built, design = [], RegressionBasis.design

        def counted_design(self, ensemble, t_index):
            built.append(t_index)
            return design(self, ensemble, t_index)

        monkeypatch.setattr(RegressionBasis, "design", counted_design)
        window_cap(0.15)
        rep = general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert len(rep.windows) > 1 and all(w.halvings == 0 for w in rep.windows)
        assert all(w.iterations >= 2 for w in rep.windows)
        assert sorted(built) == list(range(40))

    def test_designs_held_within_the_ensemble_bytes(self, monkeypatch):
        # one zero-drift window of 20 steps on K = 1: its 20 designs of 3
        # features would take 480 M bytes, past the ensemble's 208 M, so it
        # holds the 8 rightmost and the others build theirs at each use
        paths, design_bytes = 500, 8 * 500 * 3
        prob = make_problem(DiagonalOperator([0.5]), lambda e: np.tanh(w_end(e)))
        basis = RegressionBasis(degree=2)
        solve, design = mildbsde.solver.local_solve, RegressionBasis.design
        held_bytes, built = [], []

        def recorded_solve(*args, designs, **kwargs):
            held_bytes.append(sum(d.nbytes for d in designs if d is not None))
            return solve(*args, designs=designs, **kwargs)

        def counted_design(self, ensemble, t_index):
            built.append(t_index)
            return design(self, ensemble, t_index)

        def run():
            held_bytes.clear()
            built.clear()
            ens = sample_ensemble(TimeGrid.uniform(1.0, 20), 1, paths, seed=29)
            return kept_solve(prob, ens, basis)

        monkeypatch.setattr(mildbsde.solver, "local_solve", recorded_solve)
        monkeypatch.setattr(RegressionBasis, "design", counted_design)
        sol, rep = run()
        cap = mildbsde.solver.ensemble_nbytes(20, paths, 1)
        held = cap // design_bytes
        assert held == 8 and len(rep.windows) == 1
        assert held_bytes == [held * design_bytes] and held_bytes[0] <= cap
        # held once; each other node at every Picard pass and at its Z fit
        passes = rep.windows[0].iterations + 1
        rebuilt = [l for l in range(20 - held) for _ in range(passes + 1)]
        assert sorted(built) == sorted(list(range(20 - held, 20)) + rebuilt)
        monkeypatch.setattr(mildbsde.solver, "ensemble_nbytes", lambda *args: 2 ** 62)
        lifted, lifted_rep = run()
        assert held_bytes == [20 * design_bytes] and sorted(built) == list(range(20))
        np.testing.assert_array_equal(sol.y, lifted.y)
        np.testing.assert_array_equal(sol.z, lifted.z)
        assert replace(rep, runtime_seconds=0.0) == replace(lifted_rep, runtime_seconds=0.0)

    def test_shift_equivalence(self):
        # solving the shifted problem and unshifting matches solving with the
        # monotone part kept inside f0; a grid fine enough for both schedules
        # keeps the two runs on identical Brownian draws
        grid = TimeGrid.uniform(1.0, 320)
        ens = sample_ensemble(grid, 1, 4000, seed=77)
        op = DiagonalOperator([0.0])
        mu = 0.6

        def drift(t, y):
            return mu * y - y ** 3

        f0 = DissipativeDrift(
            fn=drift, growth_scale=mu + 1.0, growth_power=3.0, monotonicity=mu,
            lipschitz=lambda r: mu + 3.0 * r ** 2,
        )
        terminal = lambda e: 0.4 * np.tanh(w_end(e))  # noqa: E731
        prob = make_problem(op, terminal, bound=0.4, f0=f0)
        # declared monotonicity 0: no shift, mu y stays inside f0
        folded = make_problem(op, terminal, bound=0.4, f0=replace(f0, monotonicity=0.0))
        basis = RegressionBasis(degree=2)
        sol_a, rep_a = kept_solve(prob, ens, basis)
        sol_b, rep_b = kept_solve(folded, ens, basis)
        assert rep_a.lambda_shift == mu and rep_b.lambda_shift == 0.0
        assert sol_a.grid.n_steps == sol_b.grid.n_steps == 320
        scale = np.sqrt(np.mean(sol_a.y ** 2))
        diff = np.sqrt(np.mean((sol_a.y - sol_b.y) ** 2))
        assert diff <= 0.02 * scale

    def test_solution_norm_within_apriori_bound(self, small_ensemble):
        op = DiagonalOperator([1.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0, lipschitz=1.1
        )
        prob = make_problem(op, lambda e: 0.5 * np.tanh(w_end(e)),
                            bound=0.5, f0=f0)
        rep = general_solve(prob, small_ensemble, RegressionBasis(degree=2), drop_node)
        assert rep.max_y_h <= 1.1 * rep.c1_bound


class TestGeneralSolve:
    def test_beta_values(self):
        # beta = 4 K^2 + 1: K = 1 -> 5, K = 0.5 -> 2
        for k, beta in ((1.0, 5.0), (0.5, 2.0)):
            assert 4.0 * k ** 2 + 1.0 == beta

    def test_solve_inflates_the_sampled_constants_by_its_margin(self, small_ensemble):
        # the sampled constants are lower estimates; a solve uses them times 1.2
        op = DiagonalOperator([1.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0, lipschitz=1.1
        )
        prob = make_problem(op, lambda e: 0.5 * np.tanh(w_end(e)), bound=0.5, f0=f0)
        rep = general_solve(prob, small_ensemble, RegressionBasis(degree=2), drop_node)
        raw, scaled = rep.constants["raw"], rep.constants["scaled"]
        assert raw["margin"] == 1.0
        assert scaled["margin"] == 1.2
        for name in ("m_alpha", "c_alpha", "g_holder"):
            assert scaled[name] == 1.2 * raw[name]

    def test_overflowing_outer_weight_fails_before_any_sweep(self, monkeypatch):
        # K = 14 gives beta = 785 on T = 1, and exp(785) overflows a float: the
        # solve refuses before its first sweep instead of running out its outer
        # steps on infinite weights
        prob = mildbsde.models.build_preset("reaction-diffusion-1d", driver_strength=14.0)
        ens = sample_ensemble(TimeGrid.uniform(prob.horizon, 20), prob.noise_dim, 400, seed=3)
        sweeps = []
        monkeypatch.setattr(mildbsde.solver, "global_solve", lambda *a, **k: sweeps.append(a))
        with pytest.raises(OuterDivergence, match=r"beta = 4 K\^2 \+ 1 = 785, T = 1$"):
            general_solve(prob, ens, RegressionBasis(degree=2, n_coords=3), drop_node)
        assert sweeps == []

    def test_driver_free_delegates(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end)
        rep = general_solve(prob, small_ensemble, RegressionBasis(degree=2), drop_node)
        assert rep.outer is None

    def test_constant_driver_single_outer_iteration(self, small_ensemble):
        # K = 0: f1 independent of (y, z); one outer pass suffices
        op = DiagonalOperator([1.0])
        f1 = BoundedDriver(
            fn=lambda t, y, z: 0.3 * np.ones_like(y), lipschitz_const=0.0, bound=0.3
        )
        prob = make_problem(op, lambda e: 0.4 * np.tanh(w_end(e)),
                            bound=0.4, f1=f1)
        rep = general_solve(prob, small_ensemble, RegressionBasis(degree=2), drop_node)
        assert rep.outer["iterations"] == 1
        assert rep.outer["beta"] == 1.0

    @staticmethod
    def _coupled(terminal=lambda e: 0.4 * np.tanh(w_end(e))):
        grid = TimeGrid.uniform(1.0, 40)
        ens = sample_ensemble(grid, 1, 4000, seed=91)
        op = DiagonalOperator([1.0])
        f1 = BoundedDriver(
            fn=lambda t, y, z: -0.5 * np.tanh(y + z[..., 0]),
            lipschitz_const=0.5, bound=0.5,
        )
        return make_problem(op, terminal, bound=0.4, f1=f1), ens

    def test_coupled_driver_contracts(self):
        prob, ens = self._coupled()
        rep = general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert rep.outer["beta"] == pytest.approx(2.0)
        assert rep.outer["iterations"] <= 10
        assert all(f <= 0.6 for f in rep.outer["squared_factors"])

    def test_driver_read_once_per_node_and_window(self, monkeypatch, window_cap):
        # each sweep evaluates f1 once per node, one window at a time, plus
        # the rows a halved window drops and the next window reads again; Y
        # and Z equal those of f1 frozen on the whole grid before the sweep.
        # The designs follow the driver: each sweep builds a node's design once
        # per window that reads it, the replay once per node, and every fit at
        # node l reads a design equal to basis.design(ens, l)
        prob, ens = self._coupled()
        n_steps, calls, built, misread = ens.grid.n_steps, [], [], []
        f1 = prob.f1.fn
        prob.f1.fn = lambda t, y, z: calls.append(t) or f1(t, y, z)
        solve, sweep = mildbsde.solver.local_solve, mildbsde.solver.global_solve
        design, fit = RegressionBasis.design, mildbsde.wiener._fit

        def counted_design(self, ensemble, t_index):
            built.append(t_index)
            return design(self, ensemble, t_index)

        def checked_fit(ensemble, basis, t_index, phi, targets):
            if not np.array_equal(phi, design(basis, ensemble, t_index)):
                misread.append(t_index)
            return fit(ensemble, basis, t_index, phi, targets)

        def halve_first_window(*args, **kwargs):
            if not halved:
                halved.append(args[5] - args[4])  # the window's steps
                raise PicardDivergence("forced on the first window")
            return solve(*args, **kwargs)

        def counted_sweep(*args, **kwargs):
            before, designs_before = len(calls), len(built)
            sweep(*args, **kwargs)
            per_sweep.append(len(calls) - before)
            designs_per_sweep.append(len(built) - designs_before)

        def whole_grid_sweep(*args, node_sink, helper):
            *head, driver = args
            # before any node is overwritten
            rows = [driver(l, design(RegressionBasis(degree=2), ens, l)) for l in range(n_steps)]
            sweep(*head, lambda l, _: rows[l], node_sink=node_sink, helper=helper)

        monkeypatch.setattr(mildbsde.solver, "local_solve", halve_first_window)
        monkeypatch.setattr(RegressionBasis, "design", counted_design)
        for module in (mildbsde.solver, mildbsde.wiener):
            monkeypatch.setattr(module, "_fit", checked_fit)
        window_cap(0.2)
        basis = RegressionBasis(degree=2)
        halved, per_sweep, designs_per_sweep = [], [], []
        with patch.object(mildbsde.solver, "global_solve", counted_sweep):
            sol, rep = kept_solve(prob, ens, basis)
        sweeps = rep.outer["iterations"]
        assert halved == [8] and sum("halving" in m for m in rep.messages) == 1
        assert sweeps > 1
        assert per_sweep == [n_steps + 4] + [n_steps] * (sweeps - 1)
        assert designs_per_sweep == per_sweep
        # the halved first window [32, 40] kept the designs of [36, 40]
        dropped = set(range(32, 36))
        assert sorted(built) == sorted(
            [l for l in range(n_steps) for _ in range(sweeps + 1 + (l in dropped))]
        )
        assert misread == []
        halved = []
        with patch.object(mildbsde.solver, "global_solve", whole_grid_sweep):
            whole, whole_rep = kept_solve(prob, ens, basis)
        assert whole_rep.outer == rep.outer
        np.testing.assert_array_equal(sol.y, whole.y)
        np.testing.assert_array_equal(sol.z, whole.z)

    def test_clipped_rows_rebuild_from_coefficients(self, monkeypatch, window_cap):
        # a sharp terminal makes the quadratic fits overshoot the ball on tail
        # paths, so the last pass of some window clips states; the Y the
        # solve emits, rebuilt from each node's coefficients and projection
        # scale, equals the projected window rows bit for bit
        prob, ens = self._coupled(lambda e: 0.4 * np.tanh(5.0 * w_end(e)))
        solve = mildbsde.solver.local_solve
        rows, clipped = {}, {}

        def recorded_solve(*args, **kwargs):
            y, stats, fits = solve(*args, **kwargs)
            for j, (_, scale) in enumerate(fits):  # the last sweep's rows stay
                rows[args[4] + j] = y[j].copy()
                clipped[args[4] + j] = scale is not None
            return y, stats, fits

        monkeypatch.setattr(mildbsde.solver, "local_solve", recorded_solve)
        window_cap(0.3)
        sol, rep = kept_solve(prob, ens, RegressionBasis(degree=2))
        assert rep.outer["iterations"] > 1
        assert sum(w.ball_clipped for w in rep.windows) > 0 and any(clipped.values())
        assert sorted(rows) == list(range(ens.grid.n_steps))
        for l, row in rows.items():
            assert sol.y[l].tobytes() == row.tobytes()

    def test_warm_regression_cache_matches_fresh_ensemble(self):
        # the second solve reuses the Gram matrices the first one left on the
        # ensemble; it must return the arrays of a cold solve
        prob, ens = self._coupled()
        basis = RegressionBasis(degree=2)
        general_solve(prob, ens, basis, drop_node)
        assert ens._ridged_gram
        warm, _ = kept_solve(prob, ens, basis)
        fresh = sample_ensemble(ens.grid, ens.n_noise, ens.n_paths, ens.seed)
        cold, _ = kept_solve(prob, fresh, basis)
        np.testing.assert_array_equal(warm.y, cold.y)
        np.testing.assert_array_equal(warm.z, cold.z)

    @pytest.mark.parametrize("cap, grids", [(None, 1), (0.015, 2)])
    def test_per_solve_work_runs_once(self, monkeypatch, window_cap, cap, grids):
        # the constants depend on no grid and the terminal values on no outer
        # iterate; a window cap below one step (0.025) forces one refinement,
        # which the plan makes before any terminal value is computed
        calls = {"constants": 0, "terminal": 0}
        estimate = mildbsde.solver.estimate_constants

        def counted_estimate(*args, **kwargs):
            calls["constants"] += 1
            return estimate(*args, **kwargs)

        def counted_terminal(e):
            calls["terminal"] += 1
            return 0.4 * np.tanh(w_end(e))

        monkeypatch.setattr(mildbsde.solver, "estimate_constants", counted_estimate)
        prob, ens = self._coupled(counted_terminal)
        if cap is not None:
            window_cap(cap)
        rep = general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert rep.outer["iterations"] > 1
        assert rep.grid_refined == grids
        assert calls == {"constants": 1, "terminal": 1}
        # the refinement is reported and survives the later outer sweeps
        assert sum("grid refined" in m for m in rep.messages) == grids - 1

    def test_every_sweep_selects_first_and_paste_window(self, monkeypatch, window_cap):
        # the plan selects the first window from the terminal bound once per
        # solve, and each outer sweep its paste windows from the C_2 it fitted
        # on that first window
        select, sweep = mildbsde.solver.select_local_radius_and_delta, mildbsde.solver.global_solve
        calls, fits = [], []

        def recorded_select(problem, bound, consts):
            calls.append((bound, select(problem, bound, consts)))
            return calls[-1][1]

        def recorded_sweep(*args, **kwargs):
            solution = sweep(*args, **kwargs)
            report = next(a for a in args if isinstance(a, SolverReport))
            first, dt = report.windows[0], ens.grid.times[1]
            fits.append((report.c2_fit, (first.end_index - first.start_index) * dt))
            return solution

        monkeypatch.setattr(mildbsde.solver, "select_local_radius_and_delta", recorded_select)
        monkeypatch.setattr(mildbsde.solver, "global_solve", recorded_sweep)
        prob, ens = self._coupled()
        window_cap(0.2)
        rep = general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert len(rep.windows) == 5 and rep.outer["iterations"] > 1
        assert len(fits) == rep.outer["iterations"] and len(calls) == 1 + len(fits)
        gap = rep.theta - rep.alpha
        assert calls[0][0] == prob.terminal_bound
        for (paste_bound, _), (c2, delta1) in zip(calls[1:], fits, strict=True):
            assert paste_bound == c2 / delta1 ** gap
        assert rep.selection == asdict(calls[0][1])
        assert rep.selection_paste == asdict(calls[-1][1])

    def test_rank_deficient_count_sums_the_windows(self, window_cap):
        # without a ridge the constant-only design at node 0 has rank 1, so the
        # window that starts at node 0 flags it on every pass
        ens = sample_ensemble(TimeGrid.uniform(1.0, 40), 1, 2000, seed=57)
        f0 = DissipativeDrift(
            fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0, lipschitz=1.1,
        )
        prob = make_problem(DiagonalOperator([1.0]), lambda e: 0.5 * np.tanh(w_end(e)),
                            bound=0.5, f0=f0)
        window_cap(0.15)
        rep = general_solve(prob, ens, RegressionBasis(degree=2, ridge=0.0), drop_node)
        assert len(rep.windows) > 1
        assert rep.rank_deficient_count == sum(w.rank_deficient for w in rep.windows)
        first = next(w for w in rep.windows if w.start_index == 0)
        assert first.rank_deficient == first.iterations + 1 > 0

    def test_refinement_stops_before_a_fourth_draw(self, monkeypatch):
        # the plan finds the third grid still too coarse and raises at once; no
        # ensemble is drawn for a solve that never runs
        drawn = []
        sample = mildbsde.solver.sample_ensemble

        def counted_sample(grid, *args):
            drawn.append(grid.n_steps)
            return sample(grid, *args)

        def too_coarse(*args):
            raise mildbsde.solver.GridTooCoarse("window length below one grid step", factor=2)

        monkeypatch.setattr(mildbsde.solver, "sample_ensemble", counted_sample)
        monkeypatch.setattr(mildbsde.solver, "_window_steps", too_coarse)
        ens = sample_ensemble(TimeGrid.uniform(1.0, 10), 1, 200, seed=3)
        prob = make_problem(DiagonalOperator([0.0]), w_end)
        with pytest.raises(mildbsde.solver.GridTooCoarse,
                           match="grid refinement did not reach the required window resolution"):
            general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert drawn == []

    def test_refinement_beyond_memory_draws_nothing(self, monkeypatch):
        # a refinement factor no memory can hold is a solver failure named
        # before any ensemble is drawn, not numpy's "maximum allowed size"
        drawn = []
        sample = mildbsde.solver.sample_ensemble

        def counted_sample(grid, *args):
            drawn.append(grid.n_steps)
            return sample(grid, *args)

        def far_too_coarse(*args):
            raise mildbsde.solver.GridTooCoarse("window length below one grid step", factor=10 ** 12)

        monkeypatch.setattr(mildbsde.solver, "sample_ensemble", counted_sample)
        monkeypatch.setattr(mildbsde.solver, "_window_steps", far_too_coarse)
        ens = sample_ensemble(TimeGrid.uniform(1.0, 10), 1, 200, seed=3)
        prob = make_problem(DiagonalOperator([0.0]), w_end)
        with pytest.raises(mildbsde.solver.GridTooCoarse,
                           match=r"refined to 1\.000e\+13 steps .* physical memory"):
            general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert drawn == []

    def test_refinement_frees_the_coarse_attempt(self, monkeypatch, window_cap):
        # the 100-step attempt, its ensemble included, is gone before the
        # 200-step ensemble is drawn
        coarse, alive = [], []
        sample = mildbsde.solver.sample_ensemble

        def checked_sample(grid, *args):
            alive.append((grid.n_steps, coarse[0]() is not None))
            return sample(grid, *args)

        def coarse_ensemble():
            ens = sample_ensemble(TimeGrid.uniform(1.0, 100), 1, 200, seed=5)
            coarse.append(weakref.ref(ens.increments))
            return ens

        monkeypatch.setattr(mildbsde.solver, "sample_ensemble", checked_sample)
        prob = make_problem(DiagonalOperator([0.0]), w_end)
        window_cap(0.006)
        rep = general_solve(prob, coarse_ensemble(), RegressionBasis(degree=2), drop_node)
        assert rep.grid_refined == 2
        assert alive == [(200, False)]

    def test_non_uniform_grid_rejected(self):
        ens = sample_ensemble(TimeGrid(np.array([0.0, 0.1, 0.3, 0.6, 1.0])), 1, 200, seed=3)
        prob = make_problem(DiagonalOperator([0.0]), w_end)
        with pytest.raises(ValueError, match="uniform time grid"):
            general_solve(prob, ens, RegressionBasis(degree=2), drop_node)


class TestPlanSolve:
    """The grid is planned before the draw, so a solve draws one ensemble."""

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(1, 200),
        cap=st.floats(1e-3, 2.0),
        horizon=st.floats(0.1, 3.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_planned_grid_resolves_the_capped_first_window(self, steps, cap, horizon, seed):
        # each grid the plan tries but the last is too coarse for the capped
        # window; the last one, which the solve draws, is not
        prob = make_problem(DiagonalOperator([1.0]), w_end, T=horizon)
        window_steps, tried = mildbsde.solver._window_steps, []

        def capped(delta, dt, n_steps):
            tried.append((n_steps, dt))
            return window_steps(min(delta, cap), dt, n_steps)

        with patch.object(mildbsde.solver, "_window_steps", capped):
            plan = plan_solve(prob, steps, seed, 100)
        assert tried[0][0] == plan.base_steps == steps and tried[-1][0] == plan.n_steps
        assert len(tried) == 1 + len(plan.refinements)
        assert all(dt > cap for _, dt in tried[:-1])
        drawn = TimeGrid.uniform(horizon, plan.n_steps).deltas
        assert tried[-1][1] == drawn[0] <= cap
        assert plan.n_steps % steps == 0

    def test_passed_plan_solves_as_a_plan_made_inside(self, window_cap):
        # a cap below one step (0.025) refines the grid: drawing at the planned
        # grid and passing the plan gives the solve that plans from the coarse
        # ensemble and draws the planned one itself
        prob, ens = TestGeneralSolve._coupled()
        window_cap(0.015)
        inside, rep_inside = kept_solve(prob, ens, RegressionBasis(degree=2))
        plan = plan_solve(prob, ens.grid.n_steps, ens.seed, ens.n_paths)
        assert (plan.base_steps, plan.n_steps) == (40, 80)
        planned = sample_ensemble(TimeGrid.uniform(1.0, 80), 1, ens.n_paths, ens.seed)
        passed, rep_passed = kept_solve(prob, planned, RegressionBasis(degree=2), plan=plan)
        np.testing.assert_array_equal(inside.y, passed.y)
        np.testing.assert_array_equal(inside.z, passed.z)
        rep_inside.runtime_seconds = rep_passed.runtime_seconds = 0.0
        assert asdict(rep_inside) == asdict(rep_passed)
        assert rep_passed.grid_refined == 2 and rep_passed.messages == list(plan.refinements)


    def test_short_paste_window_retries_on_a_finer_grid(self, monkeypatch, window_cap):
        # the plan resolves the first window; the paste window, known only
        # after it, is shorter than one step (0.025), so the solve draws once more
        select, sample = mildbsde.solver.select_local_radius_and_delta, sample_ensemble
        drawn = []

        def short_paste(problem, bound, consts):
            sel = select(problem, bound, consts)
            return sel if bound == problem.terminal_bound else replace(sel, delta=0.015)

        def counted_sample(grid, *args):
            drawn.append(grid.n_steps)
            return sample(grid, *args)

        monkeypatch.setattr(mildbsde.solver, "select_local_radius_and_delta", short_paste)
        monkeypatch.setattr(mildbsde.solver, "sample_ensemble", counted_sample)
        window_cap(0.2)
        prob, ens = TestGeneralSolve._coupled()
        retried, rep = kept_solve(prob, ens, RegressionBasis(degree=2))
        assert drawn == [80] and rep.grid_refined == 2
        assert sum("grid refined" in m for m in rep.messages) == 1
        fine = sample(TimeGrid.uniform(1.0, 80), 1, ens.n_paths, ens.seed)
        direct, rep_direct = kept_solve(prob, fine, RegressionBasis(degree=2))
        np.testing.assert_array_equal(retried.y, direct.y)
        np.testing.assert_array_equal(retried.z, direct.z)
        assert rep_direct.grid_refined == 1 and rep_direct.windows == rep.windows


class TestWeightedDistance:
    """The outer distance, taken node by node as each sweep hands its nodes over."""

    @staticmethod
    def _two_array_form(grid, beta, dy, dz):
        # the whole-grid formula on difference arrays, as the outer loop first had it
        w = np.exp(beta * grid.times[:-1]) * grid.deltas
        y_part = float((w * np.square(dy[:-1]).sum(axis=-1).mean(axis=1)).sum())
        z_part = float((w * np.square(dz).sum(axis=(-1, -2)).mean(axis=1)).sum())
        return math.sqrt(y_part + z_part)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.integers(1, 12),
        paths=st.integers(7, 400),  # at least the 1 + noise features of the basis
        dim=st.integers(1, 6),
        noise=st.integers(1, 6),
        lipschitz=st.floats(0.01, 2.2),
        horizon=st.floats(0.1, 3.0),
        seed=st.integers(0, 2 ** 16),
    )
    def test_node_by_node_equals_two_array_form(
        self, steps, paths, dim, noise, lipschitz, horizon, seed
    ):
        rng = np.random.default_rng(seed)
        grid = TimeGrid.uniform(horizon, steps)
        ens = sample_ensemble(grid, noise, paths, seed=seed)
        basis = RegressionBasis(degree=1)
        designs = [basis.design(ens, l) for l in range(steps)]
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        # Y and Z as the solver fits them: per node, its design times a
        # coefficient matrix, and Y on every other node times a projection scale
        b0, b1 = scale * rng.standard_normal((2, steps, designs[0].shape[1], dim))
        s0, s1 = rng.uniform(0.5, 1.0, (2, steps, paths))
        c0, c1 = scale * rng.standard_normal((2, steps, designs[0].shape[1], dim * noise))
        y_fits = [[(b[l], s[l] if l % 2 else None) for l in range(steps)]
                  for b, s in ((b0, s0), (b1, s1))]
        y0, y1 = (
            np.stack([d @ b if s is None else (d @ b) * s[:, None]
                      for d, (b, s) in zip(designs, fits)] + [np.zeros((paths, dim))])
            for fits in y_fits
        )
        z0, z1 = (
            np.stack([(d @ c[l]).reshape(paths, dim, noise) for l, d in enumerate(designs)])
            for c in (c0, c1)
        )
        iterates = iter([(y0, y_fits[0], c0, z0)] + [(y1, y_fits[1], c1, z1)] * 24)

        def sweep(*args, node_sink, **kwargs):
            # each outer step's sweep hands over the next iterate: node L
            # without Z first, then node L-1 down to node 0
            y, y_fit, c, z = next(iterates)
            node_sink(steps, y[steps], None, None)
            for l in range(steps - 1, -1, -1):
                node_sink(l, y[l], Regression(z[l], c[l], False, designs[l]), y_fit[l])

        f1 = BoundedDriver(
            fn=lambda t, y, z: np.zeros_like(y), lipschitz_const=lipschitz, bound=1.0
        )
        prob = make_problem(
            DiagonalOperator(np.arange(dim, dtype=float)),
            lambda e: np.zeros((e.n_paths, dim)), f1=f1, noise=noise, T=horizon,
        )
        with patch.object(mildbsde.solver, "global_solve", sweep):
            sol, rep = kept_solve(prob, ens, basis)
        beta = 4.0 * lipschitz ** 2 + 1.0
        assert rep.outer["beta"] == beta
        first, second = rep.outer["distances"][:2]
        assert first == self._two_array_form(grid, beta, y0, z0)  # from the zero start
        assert second == self._two_array_form(grid, beta, y1 - y0, z1 - z0)
        # the Y and Z the loop holds as coefficients end as the converged iterate's
        np.testing.assert_array_equal(sol.y, y1)
        np.testing.assert_array_equal(sol.z, z1)


def _whole_grid_residual(problem, solution, ensemble):
    # the residual as one pass over stored drift values, before it was taken node by node
    grid = solution.grid
    y, z = solution.y, solution.z
    decay, kernel_int = _step_factors(problem.operator, grid.deltas)
    f_vals = np.zeros((grid.n_steps,) + y.shape[1:])
    for l in range(grid.n_steps):
        t = float(grid.times[l])
        val = 0.0
        if not problem.f0.is_zero:
            val = problem.f0(t, y[l])
        if problem.f1 is not None:
            val = val + problem.f1(t, y[l], z[l])
        f_vals[l] = val
    int_f = np.zeros_like(y[-1])
    int_z = np.zeros_like(y[-1])
    prop_term = y[-1].copy()
    total = 0.0
    for l in range(grid.n_steps - 1, -1, -1):
        zdw = np.einsum("mnk,mk->mn", z[l], ensemble.increments[l])
        int_f = kernel_int[l] * f_vals[l] + decay[l] * int_f
        int_z = zdw + decay[l] * int_z
        prop_term = decay[l] * prop_term
        defect = y[l] - int_f + int_z - prop_term
        total += float(grid.deltas[l]) * float(np.mean(np.sum(defect ** 2, axis=-1)))
    return math.sqrt(total / grid.horizon)


class TestZSink:
    """``general_solve(..., sink=...)`` against the Y and Z that ``kept_solve`` collects."""

    @staticmethod
    def _problem(case):
        terminal = lambda e: 0.4 * np.tanh(w_end(e))  # noqa: E731
        if case == "shifted":
            # positive monotonicity: the sweep runs on the shifted equation
            mu = 0.5
            f0 = DissipativeDrift(
                fn=lambda t, y: mu * y - y ** 3, growth_scale=mu + 1.0, growth_power=3.0,
                monotonicity=mu, lipschitz=lambda r: mu + 3.0 * r ** 2,
            )
            small = lambda e: 0.1 * np.tanh(w_end(e))  # noqa: E731
            return make_problem(DiagonalOperator([0.0]), small, bound=0.1, f0=f0)
        if case == "unshifted":
            f0 = DissipativeDrift(
                fn=lambda t, y: -np.tanh(y), growth_scale=1.1, growth_power=2.0,
                lipschitz=1.1,
            )
            return make_problem(DiagonalOperator([1.0]), terminal, bound=0.4, f0=f0)
        f1 = BoundedDriver(
            fn=lambda t, y, z: -0.5 * np.tanh(y + z[..., 0]), lipschitz_const=0.5, bound=0.5,
        )
        return make_problem(DiagonalOperator([1.0]), terminal, bound=0.4, f1=f1)

    @pytest.mark.parametrize("case", ["shifted", "unshifted", "f1"])
    def test_each_node_once_in_descending_order(self, window_cap, case):
        prob = self._problem(case)
        ens = sample_ensemble(TimeGrid.uniform(1.0, 40), 1, 1000, seed=61)
        basis = RegressionBasis(degree=2)
        window_cap(0.3)
        kept, kept_rep = kept_solve(prob, ens, basis)
        assert kept_rep.grid_refined == 1
        assert (kept_rep.lambda_shift > 0.0) == (case == "shifted")
        assert (kept_rep.outer is not None) == (case == "f1")
        assert len(kept_rep.windows) > 1
        seen = []

        def rec(l, y_l, z_l, fit):
            seen.append((l, y_l.copy(), None if z_l is None else z_l.copy()))

        rep = general_solve(prob, ens, basis, sink=rec)
        n_steps = ens.grid.n_steps
        assert [l for l, _, _ in seen] == list(range(n_steps, -1, -1))
        assert seen[0][2] is None
        for l, y_l, z_l in seen:
            np.testing.assert_array_equal(y_l, kept.y[l])
            if l < n_steps:
                np.testing.assert_array_equal(z_l, kept.z[l])
        assert rep.residual_value == residual(prob, ens, kept.y, kept.z)
        assert rep.residual_value == kept_rep.residual_value
        assert rep.residual_value == _whole_grid_residual(prob, kept, ens)
        shifted_y = kept.y
        if case == "shifted":
            # the kept pair is the shifted equation's solution, shifted back
            direct, _ = kept_solve(
                exponential_shift(prob, kept_rep.lambda_shift), ens, basis
            )
            scale = np.exp(-kept_rep.lambda_shift * ens.grid.times)
            np.testing.assert_array_equal(kept.y, direct.y * scale[:, None, None])
            np.testing.assert_array_equal(kept.z, direct.z * scale[:-1, None, None, None])
            shifted_y = direct.y
        # the node exit's norm columns are the whole-array norms of the shifted Y
        h_norms = np.linalg.norm(shifted_y, axis=-1)
        theta_norms = (
            h_alpha_norm_batch(prob.operator, prob.theta, shifted_y) if prob.theta > 0 else h_norms
        )
        for r in (rep, kept_rep):
            assert r.mean_y_h == h_norms.mean(axis=1).tolist()
            assert r.max_y_h_per_node == h_norms.max(axis=1).tolist()
            assert r.max_y_theta_per_node == theta_norms.max(axis=1).tolist()

    def test_residual_takes_nodes_right_to_left_only(self, small_ensemble):
        prob = make_problem(DiagonalOperator([0.0]), w_end)
        sol, _ = kept_solve(prob, small_ensemble, RegressionBasis(degree=2))
        factors = _step_factors(prob.operator, sol.grid.deltas)
        sweep = mildbsde.solver._ResidualSweep(prob, sol.grid, small_ensemble, factors, sol.y[-1])
        with pytest.raises(ValueError, match="expected node 49, got node 0"):
            sweep.add(0, sol.y[0], sol.z[0])
        sweep.add(49, sol.y[49], sol.z[49])
        with pytest.raises(ValueError, match="missing nodes 0..48"):
            sweep.value()


class TestWindowPipeline:
    """The node exit runs on the helper thread, one window behind the Picard iteration."""

    class SinkFull(Exception):
        pass

    @staticmethod
    def _solve_setup(window_cap):
        ens = sample_ensemble(TimeGrid.uniform(1.0, 40), 1, 1000, seed=61)
        window_cap(0.3)  # windows [33, 40], [27, 33], [21, 27], ..., [3, 9], [0, 3]
        return ens, RegressionBasis(degree=2)

    def test_sink_failure_surfaces_and_stops_the_exit(self, window_cap):
        ens, basis = self._solve_setup(window_cap)
        prob = TestZSink._problem("unshifted")
        threads = threading.active_count()
        seen = []

        def full_at_20(l, y_l, z_l, fit):
            seen.append(l)
            if l == 20:
                raise self.SinkFull(f"no room for node {l}")

        with pytest.raises(self.SinkFull, match="no room for node 20"):
            general_solve(prob, ens, basis, sink=full_at_20)
        assert seen == list(range(40, 19, -1))
        assert threading.active_count() == threads
        # the same solve with a sink that keeps going ends every thread too
        seen.clear()
        rep = general_solve(prob, ens, basis, sink=lambda l, y_l, z_l, fit: seen.append(l))
        assert len(rep.windows) == 7
        assert seen == list(range(40, -1, -1))
        assert threading.active_count() == threads

    def test_drift_failure_waits_for_the_window_in_flight(self, window_cap):
        # f0 turns NaN at node 30, in the second window, while the first
        # window's exit waits in the sink: the solve raises only once that
        # exit has handed over all of its nodes, and leaves no thread behind
        ens, basis = self._solve_setup(window_cap)
        bad_t = float(ens.grid.times[30])
        reached = threading.Event()

        def poisoned(t, y):
            if t == bad_t:
                reached.set()
                return np.full_like(y, np.nan)
            return -np.tanh(y)

        f0 = DissipativeDrift(fn=poisoned, growth_scale=1.1, growth_power=2.0, lipschitz=1.1)
        prob = make_problem(DiagonalOperator([1.0]), lambda e: 0.4 * np.tanh(w_end(e)),
                            bound=0.4, f0=f0)
        threads = threading.active_count()
        seen, waited = [], []

        def slow_sink(l, y_l, z_l, fit):
            if l == 40:
                waited.append(reached.wait(timeout=60.0))
            seen.append(l)

        with pytest.raises(NonFiniteDrift, match="at node 30"):
            general_solve(prob, ens, basis, sink=slow_sink)
        assert waited == [True]
        assert seen == list(range(40, 32, -1))
        assert threading.active_count() == threads


    def test_concurrent_solves_keep_their_bits(self, window_cap):
        # three coupled solves at once on one ensemble, each with its own
        # worker, while the interpreter switches threads every 10 us: a node
        # overwritten before the driver read it, or a cache seen half
        # filled, would change Y or Z
        prob, ens = TestGeneralSolve._coupled()
        basis = RegressionBasis(degree=2)
        window_cap(0.2)
        cold = sample_ensemble(ens.grid, ens.n_noise, ens.n_paths, ens.seed)
        ref, _ = kept_solve(prob, cold, basis)
        solved = [None] * 3

        def solve(i):
            solved[i] = kept_solve(prob, ens, basis)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [threading.Thread(target=solve, args=(i,)) for i in range(3)]
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=300.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        for sol in solved:
            np.testing.assert_array_equal(sol.y, ref.y)
            np.testing.assert_array_equal(sol.z, ref.z)


class TestShared:
    """A per-node batch: this thread runs the earlier half of the nodes and
    offers the later half to the solve's helper, taking it back if the helper
    has not started it."""

    @staticmethod
    def _handed_over(helper, fn, nodes):
        # the helper always runs the later half, and this thread waits for it
        nodes = list(nodes)
        cut = (len(nodes) + 1) // 2
        if helper is None or cut == len(nodes):
            return [fn(node) for node in nodes]
        later = helper.submit(lambda: [fn(node) for node in nodes[cut:]])
        return [fn(node) for node in nodes[:cut]] + later.result()

    @pytest.mark.parametrize("count", range(1, 8))
    def test_results_equal_the_plain_loop(self, count):
        nodes = range(10, 10 + count)
        ran = []

        def square(node):
            ran.append(node)
            return node * node

        with ThreadPoolExecutor(max_workers=1) as helper:
            assert _shared(helper, square, nodes) == [node * node for node in nodes]
        assert sorted(ran) == list(nodes)
        assert _shared(None, square, nodes) == [node * node for node in nodes]

    def test_busy_helper_leaves_both_halves_here(self):
        # the helper waits on an event that only this test sets, after the
        # batch: the batch must not wait for it
        release = threading.Event()
        threads = []
        with ThreadPoolExecutor(max_workers=1) as helper:
            blocked = helper.submit(release.wait, 60.0)
            got = _shared(helper, lambda node: threads.append(threading.get_ident()) or node,
                          range(7))
            assert not blocked.done()
            release.set()
        assert got == list(range(7))
        assert threads == [threading.get_ident()] * 7

    @pytest.mark.parametrize("bad", [[1], [4], [1, 4]])
    def test_first_error_surfaces_this_threads_first(self, bad):
        # nodes 0-2 run here, 3-5 on the helper, which starts before node 0
        # ends; the first failing node of a half raises, this thread's first,
        # and only once both halves are done
        started, done = threading.Event(), []

        def fn(node):
            if node == 3:
                started.set()
            if node == 0:
                assert started.wait(60.0)
            if node in bad:
                raise ValueError(f"node {node}")
            done.append(node)
            return node

        with ThreadPoolExecutor(max_workers=1) as helper:
            with pytest.raises(ValueError, match=f"node {bad[0]}"):
                _shared(helper, fn, range(6))
            assert 3 in done

    def test_no_thread_outlives_a_failed_batch(self, window_cap):
        # f0 turns NaN at nodes 31 and 28 of the window [27, 33]: the serial
        # loop reaches 31 first, which is in this thread's half, and 28 is
        # in the helper's; the solve names node 31 and leaves no thread
        ens = sample_ensemble(TimeGrid.uniform(1.0, 40), 1, 1000, seed=61)
        window_cap(0.3)
        bad = {float(ens.grid.times[l]) for l in (31, 28)}

        def poisoned(t, y):
            return np.full_like(y, np.nan) if t in bad else -np.tanh(y)

        f0 = DissipativeDrift(fn=poisoned, growth_scale=1.1, growth_power=2.0, lipschitz=1.1)
        prob = make_problem(DiagonalOperator([1.0]), lambda e: 0.4 * np.tanh(w_end(e)),
                            bound=0.4, f0=f0)
        threads = threading.active_count()
        with pytest.raises(NonFiniteDrift, match="at node 31 "):
            general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("case", ["coupled-clipped", "spin-chain"])
    def test_handed_over_halves_keep_every_bit(self, monkeypatch, window_cap, case):
        # every helper half run on the helper, or every batch run here alone:
        # the same Y, Z and report
        if case == "spin-chain":
            prob = mildbsde.models.build_preset("spin-chain")
            prob.validated = True
            ens = sample_ensemble(TimeGrid.uniform(prob.horizon, 100), prob.noise_dim, 1000, 5)
            basis = RegressionBasis()
        else:
            prob, ens = TestGeneralSolve._coupled(lambda e: 0.4 * np.tanh(5.0 * w_end(e)))
            window_cap(0.3)
            basis = RegressionBasis(degree=2)
        shared, handed = mildbsde.solver._shared, []

        def handed_over(helper, fn, nodes):
            handed.append(len(nodes) > 1)
            return self._handed_over(helper, fn, nodes)

        threads = threading.active_count()
        monkeypatch.setattr(mildbsde.solver, "_shared", lambda helper, fn, nodes:
                            shared(None, fn, nodes))
        alone, alone_rep = kept_solve(prob, ens, basis)
        monkeypatch.setattr(mildbsde.solver, "_shared", handed_over)
        fresh = sample_ensemble(ens.grid, ens.n_noise, ens.n_paths, ens.seed)
        split, split_rep = kept_solve(prob, fresh, basis)
        assert any(handed)
        assert split.y.tobytes() == alone.y.tobytes()
        assert split.z.tobytes() == alone.z.tobytes()
        alone_rep.runtime_seconds = split_rep.runtime_seconds = 0.0
        assert asdict(split_rep) == asdict(alone_rep)
        assert threading.active_count() == threads
        if case == "spin-chain":
            assert alone_rep.grid_refined == 2
        else:
            assert alone_rep.outer["iterations"] > 1
            assert sum(w.ball_clipped for w in alone_rep.windows) > 0


class TestNonFiniteDrift:
    @pytest.mark.parametrize("which", ["f0", "f1"])
    def test_nan_drift_names_its_node(self, which):
        ens = sample_ensemble(TimeGrid.uniform(1.0, 20), 1, 200, seed=3)
        bad_t = float(ens.grid.times[7])

        def poisoned(t, value):
            return np.full_like(value, np.nan) if t == bad_t else value

        op = DiagonalOperator([1.0])
        f0 = f1 = None
        if which == "f0":
            f0 = DissipativeDrift(
                fn=lambda t, y: poisoned(t, -y), growth_scale=1.0, growth_power=2.0,
                lipschitz=1.0,
            )
        else:
            f1 = BoundedDriver(
                fn=lambda t, y, z: poisoned(t, -0.5 * np.tanh(y)), lipschitz_const=0.5,
                bound=0.5,
            )
        prob = make_problem(
            op, lambda e: 0.4 * np.tanh(w_end(e)), bound=0.4, f0=f0, f1=f1
        )
        message = rf"^{which} returned a non-finite value at node 7 \(t = 0.35\)$"
        with pytest.raises(NonFiniteDrift, match=message):
            general_solve(prob, ens, RegressionBasis(degree=2), drop_node)


class TestResidual:
    def test_exact_linear_solution_machine_small(self, small_ensemble):
        # deterministic terminal, no drift: defect at quadrature/ridge scale
        op = DiagonalOperator([2.0])
        prob = make_problem(op, lambda e: np.ones((e.n_paths, 1)), bound=1.0)
        rep = general_solve(prob, small_ensemble, RegressionBasis(degree=2), drop_node)
        assert rep.residual_value < 1e-6

    def test_unit_defect_injection(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = make_problem(op, lambda e: np.ones((e.n_paths, 1)), bound=1.0)
        sol, rep = kept_solve(prob, small_ensemble, RegressionBasis(degree=2))
        base = residual(prob, small_ensemble, sol.y, sol.z)
        perturbed = type(sol)(grid=sol.grid, y=sol.y + 1.0, z=sol.z)
        # the terminal row moved too, so compare against the defect formula:
        # Y_t + 1 - exp((T-t)A)(xi + 1) = defect + (1 - 1) for A = 0
        shifted = residual(prob, small_ensemble, perturbed.y, perturbed.z)
        assert shifted == pytest.approx(base, abs=1e-12)
        # perturb only interior values: the defect gains a unit component
        bumped = sol.y.copy()
        bumped[:-1] += 1.0
        res = residual(prob, small_ensemble, bumped, sol.z)
        assert res == pytest.approx(math.sqrt(base ** 2 + 1.0), rel=1e-6)

    def test_refined_solve_against_the_coarse_ensemble_is_refused(self, window_cap):
        # a cap of 0.006, below one step (0.01), refines the 100-step grid to 200:
        # that Y and Z against the ensemble the solve started from would pair
        # the wrong nodes, and against the ensemble it drew give its residual
        prob = make_problem(DiagonalOperator([0.0]), w_end)
        ens = sample_ensemble(TimeGrid.uniform(1.0, 100), 1, 200, seed=5)
        window_cap(0.006)
        sol, rep = kept_solve(prob, ens, RegressionBasis(degree=2))
        assert rep.grid_refined == 2
        with pytest.raises(ValueError, match=r"has 100 steps, so residual needs Y on 101 "
                                             r"nodes and Z on 100; got 201 and 200$"):
            residual(prob, ens, sol.y, sol.z)
        drawn = sample_ensemble(sol.grid, 1, 200, seed=5)
        assert residual(prob, drawn, sol.y, sol.z) == rep.residual_value
        with pytest.raises(ValueError, match="got 200 and 200$"):
            residual(prob, drawn, sol.y[1:], sol.z)

    def test_nonincreasing_under_grid_refinement(self):
        # on the martingale oracle the residual is regression-dominated, so
        # refining the grid must not grow it beyond Monte Carlo noise
        basis = RegressionBasis(degree=2, ridge=1e-8)
        values = []
        for steps in (50, 100, 200):
            grid = TimeGrid.uniform(1.0, steps)
            ens = sample_ensemble(grid, 1, 5000, seed=271)
            op = DiagonalOperator([0.0])
            prob = make_problem(op, w_end)
            rep = general_solve(prob, ens, basis, drop_node)
            values.append(rep.residual_value)
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= 2.0 * prev

    def test_invariant_under_path_relabeling(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end)
        sol, rep = kept_solve(prob, small_ensemble, RegressionBasis(degree=2))
        perm = np.random.default_rng(5).permutation(small_ensemble.n_paths)
        shuffled_ens = type(small_ensemble)(
            grid=small_ensemble.grid,
            increments=small_ensemble.increments[:, perm],
            seed=small_ensemble.seed,
        )
        shuffled_sol = type(sol)(grid=sol.grid, y=sol.y[:, perm], z=sol.z[:, perm])
        a = residual(prob, small_ensemble, sol.y, sol.z)
        b = residual(prob, shuffled_ens, shuffled_sol.y, shuffled_sol.z)
        assert a == pytest.approx(b, rel=1e-12)


class TestProblemValidation:
    def test_growth_exponent_constraint(self):
        op = DiagonalOperator([1.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: -(y ** 3), growth_scale=1.0, growth_power=3.0, lipschitz=1.0
        )
        with pytest.raises(ValueError, match="growth-exponent"):
            BsdeProblem(
                operator=op, horizon=1.0, alpha=0.4,
                terminal=lambda e: np.ones((e.n_paths, 1)), terminal_bound=1.0, f0=f0,
            )

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            make_problem(DiagonalOperator([1.0]), lambda e: np.ones((e.n_paths, 1)), T=horizon)

    def test_alpha_zero_allows_any_power(self):
        op = DiagonalOperator([1.0])
        f0 = DissipativeDrift(
            fn=lambda t, y: -(y ** 5), growth_scale=1.0, growth_power=5.0, lipschitz=1.0
        )
        prob = BsdeProblem(
            operator=op, horizon=1.0, alpha=0.0,
            terminal=lambda e: np.ones((e.n_paths, 1)), terminal_bound=1.0, f0=f0,
        )
        assert prob.theta == 0.0

    def test_terminal_bound_enforced(self, small_ensemble):
        op = DiagonalOperator([0.0])
        prob = make_problem(op, w_end, bound=0.001)
        with pytest.raises(ValidationError, match="declared bound"):
            general_solve(prob, small_ensemble, RegressionBasis(degree=2), drop_node)

    @pytest.mark.parametrize("bound", [1.0, math.inf])
    def test_nan_terminal_rejected_before_any_fit(self, monkeypatch, bound):
        # NaN > bound is False, so a NaN terminal must be refused as not
        # finite, whatever the declared bound, before the first regression
        fits = []
        fit = mildbsde.wiener._fit

        def counted_fit(*args):
            fits.append(args[2])  # the node
            return fit(*args)

        monkeypatch.setattr(mildbsde.wiener, "_fit", counted_fit)

        def terminal(e):
            xi = 0.1 * np.tanh(w_end(e)) * np.ones((1, 2))
            xi[7, 1] = math.nan
            return xi

        prob = make_problem(DiagonalOperator([1.0, 4.0]), terminal, bound=bound, alpha=0.3)
        ens = sample_ensemble(TimeGrid.uniform(1.0, 10), 1, 200, seed=8)
        with pytest.raises(ValidationError, match="not finite") as err:
            general_solve(prob, ens, RegressionBasis(degree=2), drop_node)
        assert err.value.check == "terminal"
        assert fits == []

    @pytest.mark.parametrize("bound", [math.nan, -1.0])
    def test_nan_or_negative_terminal_bound_rejected(self, bound):
        # a NaN bound would pass the terminal check, since 5.0 > nan is False,
        # and report C1 = nan; inf, the declared absence of a bound, stays allowed
        with pytest.raises(ValidationError, match="terminal_bound must be nonnegative") as err:
            make_problem(DiagonalOperator([1.0]), lambda e: np.full((e.n_paths, 1), 5.0),
                         bound=bound)
        assert err.value.check == "problem"

    def test_zero_drift_sentinel(self):
        assert zero_drift().is_zero

    def test_zero_drift_ignores_growth_constraint(self):
        # without a drift there is no growth exponent to constrain, even for
        # large smoothness orders; theta degenerates to alpha
        op = DiagonalOperator([1.0, 4.0])
        prob = make_problem(op, lambda e: 0.1 * np.ones((e.n_paths, 2)), bound=1.0,
                            alpha=0.6)
        assert prob.theta == 0.6
        grid = TimeGrid.uniform(1.0, 20)
        ens = sample_ensemble(grid, 1, 500, seed=8)
        sol, rep = kept_solve(prob, ens, RegressionBasis(degree=1))
        a = op.eigenvalues
        np.testing.assert_allclose(
            sol.y[0], np.broadcast_to(0.1 * np.exp(-a), sol.y[0].shape), rtol=1e-6
        )
