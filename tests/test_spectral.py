"""Semigroup, interpolation-norm and convolution checks against dense oracles."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mildbsde.spectral import (
    _ROW_BLOCK,
    DiagonalOperator,
    _seminorm_values,
    convolve_on_grid,
    dirichlet_laplacian_eigenvalues,
    estimate_constants,
    estimate_g_holder,
    estimate_interp_constant,
    h_alpha_norm_batch,
    h_alpha_norm_bound,
    semigroup_apply,
    smoothing_bound_check,
)
from oracles import interpolation_norm


def dense_seminorm(eigenvalues, alpha, x, points=300001):
    """Independent maximization oracle on a very dense geometric grid."""
    t = np.geomspace(1e-9, 1.0, points)
    vals = t[:, None] ** (1 - alpha) * eigenvalues[None, :] * np.exp(
        -np.outer(t, eigenvalues)
    )
    return float(np.sqrt((vals ** 2 @ np.square(x)).max()))


class TestSemigroup:
    def test_diagonal_exponential(self):
        op = DiagonalOperator([1.0, 4.0])
        out = semigroup_apply(op, 0.5, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [math.exp(-0.5), math.exp(-2.0)], rtol=1e-15)

    def test_identity_at_zero(self):
        op = DiagonalOperator([1.0, 4.0])
        x = np.array([2.0, -3.0])
        np.testing.assert_array_equal(semigroup_apply(op, 0.0, x), x)

    def test_contraction(self):
        op = DiagonalOperator([1.0, 4.0])
        x = np.array([1.0, 1.0])
        assert np.linalg.norm(semigroup_apply(op, 1.0, x)) <= np.linalg.norm(x)

    def test_dimension_mismatch_rejected(self):
        op = DiagonalOperator([1.0, 4.0])
        with pytest.raises(ValueError):
            semigroup_apply(op, 1.0, np.ones(3))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup_apply(DiagonalOperator([1.0]), -0.1, np.ones(1))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DiagonalOperator([1.0, -0.5])

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.floats(0.0, 3.0),
        s=st.floats(0.0, 3.0),
        seed=st.integers(0, 1000),
    )
    def test_semigroup_law(self, t, s, seed):
        rng = np.random.default_rng(seed)
        op = DiagonalOperator(rng.uniform(0.0, 20.0, size=5))
        x = rng.standard_normal(5)
        lhs = semigroup_apply(op, t + s, x)
        rhs = semigroup_apply(op, t, semigroup_apply(op, s, x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=1e-12)


class TestInterpolationNorm:
    def test_eigenvector_matches_dense_oracle(self):
        # analytic maximizer t* = (1 - alpha)/a = 0.125 for a = 4, alpha = 0.5
        op = DiagonalOperator([4.0])
        res = interpolation_norm(op, 0.5, np.array([1.0]))
        assert res.seminorm == pytest.approx(0.857763884847, rel=1e-6)
        oracle = dense_seminorm(np.array([4.0]), 0.5, np.array([1.0]))
        assert res.seminorm == pytest.approx(oracle, rel=1e-6)
        assert res.value == pytest.approx(1.0 + res.seminorm)

    def test_zero_eigenvalue_gives_h_norm(self):
        op = DiagonalOperator([0.0])
        res = interpolation_norm(op, 0.5, np.array([1.0]))
        assert res.seminorm == 0.0
        assert res.value == 1.0

    def test_homogeneity(self):
        op = DiagonalOperator([1.0, 9.0])
        x = np.array([0.3, -1.2])
        one = interpolation_norm(op, 0.3, x)
        two = interpolation_norm(op, 0.3, 2.0 * x)
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)
        assert two.seminorm == pytest.approx(2.0 * one.seminorm, rel=1e-12)

    def test_alpha_out_of_range_rejected(self):
        op = DiagonalOperator([1.0])
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                interpolation_norm(op, alpha, np.ones(1))

    def test_eigenvector_analytic_value_all_modes(self):
        # closed form: a > 1 - alpha peaks inside (0,1), else at t = 1
        alpha = 0.25
        op = DiagonalOperator(dirichlet_laplacian_eigenvalues(6))
        for n, a in enumerate(op.eigenvalues):
            e = np.zeros(6)
            e[n] = 1.0
            t_star = (1 - alpha) / a
            if t_star <= 1.0:
                exact = t_star ** (1 - alpha) * a * math.exp(-a * t_star)
            else:
                exact = a * math.exp(-a)
            got = interpolation_norm(op, alpha, e).seminorm
            assert got == pytest.approx(exact, rel=1e-4)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        op = DiagonalOperator(rng.uniform(0, 25, size=5))
        xs = rng.standard_normal((40, 5))
        batch = h_alpha_norm_batch(op, 0.35, xs)
        singles = np.array([interpolation_norm(op, 0.35, x).value for x in xs])
        np.testing.assert_allclose(batch, singles, rtol=2e-5)

    def test_alpha_zero_batch_is_h_norm(self):
        op = DiagonalOperator([1.0, 2.0])
        xs = np.random.default_rng(0).standard_normal((7, 2))
        np.testing.assert_allclose(
            h_alpha_norm_batch(op, 0.0, xs), np.linalg.norm(xs, axis=-1)
        )


def two_stage_seminorm(op, alpha, x):
    """The seminorm's two-stage formula with the fine windows indexed per call:
    coarse argmax on every stride-th grid point, then the clipped window of
    2 * stride + 1 grid points around it, gathered from the full weight table."""
    t = op.norm_grid(alpha).t
    w_sq = _seminorm_values(op, alpha, t) ** 2
    p = w_sq.shape[0]
    stride = (p - 1) // 128
    coarse_idx = np.arange(0, p, stride)
    x_sq = np.square(x).reshape(-1, x.shape[-1])
    coarse = x_sq @ w_sq[coarse_idx].T
    centers = coarse_idx[np.argmax(coarse, axis=-1)]
    offsets = np.arange(-stride, stride + 1)
    idx = np.clip(centers[:, None] + offsets[None, :], 0, p - 1)
    vals = np.einsum("bn,bpn->bp", x_sq, w_sq[idx])
    return np.sqrt(vals.max(axis=-1).reshape(x.shape[:-1]))


class TestSeminormKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        spectrum=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), min_size=1, max_size=8
        ),
        alpha=st.floats(0.01, 0.99),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3000)),
        seed=st.integers(0, 2 ** 16),
    )
    # a zero eigenvalue, a grid refined past 1025 points, and rows whose coarse
    # argmax is the first (zero row) or the last point (the smallest positive
    # eigenvalue, a = 0.05, peaks past t = 1)
    @example(spectrum=[0.0, 0.05, 1e6], alpha=0.3, shape=(3, 2049), seed=1)
    def test_window_table_matches_two_stage_formula(self, spectrum, alpha, shape, seed):
        op = DiagonalOperator(spectrum)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape + (op.dimension,)) * rng.uniform(0.0, 1.0, shape + (1,))
        x[..., 0, :] = 0.0
        x[..., -1, :] = 0.0
        x[..., -1, np.where(op.eigenvalues > 0, op.eigenvalues, np.inf).argmin()] = 1.0
        got = op.norm_grid(alpha).seminorm(x)
        assert np.array_equal(got, two_stage_seminorm(op, alpha, x))

    @settings(max_examples=40, deadline=None)
    @given(
        spectrum=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), min_size=1, max_size=8
        ),
        alpha=st.floats(0.01, 0.99),
        rows=st.integers(1, 500),
        seed=st.integers(0, 2 ** 16),
    )
    # a zero eigenvalue and a grid refined past 1025 points
    @example(spectrum=[0.0, 0.05, 1e6], alpha=0.3, rows=200, seed=1)
    def test_norm_bound_caps_the_norm(self, spectrum, alpha, rows, seed):
        op = DiagonalOperator(spectrum)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, op.dimension)) * rng.uniform(0.0, 1.0, (rows, 1))
        eigen = np.eye(op.dimension) * rng.uniform(0.1, 10.0, (op.dimension, 1))
        states = np.concatenate([x, eigen])
        norm = h_alpha_norm_batch(op, alpha, states)
        bound = h_alpha_norm_bound(op, alpha, states)
        assert np.all(norm <= bound * (1.0 + 1e-12))
        # eigenvectors are the extreme inputs: the bound is their norm
        assert np.all(bound[rows:] <= norm[rows:] * (1.0 + 1e-12))
        # alpha = 0: the bound is the H norm summed in another order
        norm0 = h_alpha_norm_batch(op, 0.0, states)
        bound0 = h_alpha_norm_bound(op, 0.0, states)
        assert np.all(norm0 / (1.0 + 1e-12) <= bound0)
        assert np.all(bound0 <= norm0 * (1.0 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(
        spectrum=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), min_size=1, max_size=8
        ),
        alpha=st.floats(0.01, 0.99),
        rows=st.integers(1, 2600),
        seed=st.integers(0, 2 ** 16),
    )
    # a zero eigenvalue, a refined grid and a batch past two row blocks
    @example(spectrum=[0.0, 0.05, 1e6], alpha=0.3, rows=2 * _ROW_BLOCK + 50, seed=1)
    @example(spectrum=[0.0], alpha=0.5, rows=_ROW_BLOCK + 1, seed=2)
    def test_row_subsets_keep_the_whole_batch_bits(self, spectrum, alpha, rows, seed):
        # the solver norms exactly only the rows that a bound cannot rule out
        # and takes their values for the whole batch's: a single row,
        # scattered rows, and runs that cross a row block at shifted offsets
        op = DiagonalOperator(spectrum)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, op.dimension)) * rng.uniform(0.0, 1.0, (rows, 1)) ** 4
        whole = h_alpha_norm_batch(op, alpha, x)
        subsets = [
            rng.integers(rows, size=1),
            np.flatnonzero(rng.uniform(size=rows) < 0.3),
            np.arange(1, rows),
            np.delete(np.arange(rows), rng.integers(rows, size=3)),
        ]
        for rows_kept in subsets:
            got = h_alpha_norm_batch(op, alpha, x[rows_kept])
            assert got.tobytes() == whole[rows_kept].tobytes()

    def test_example_reaches_both_grid_ends(self):
        # the explicit example above exercises the clipped windows
        op, alpha = DiagonalOperator([0.0, 0.05, 1e6]), 0.3
        grid = op.norm_grid(alpha)
        assert grid.t.size > 1025
        x = np.zeros((2, 3))
        x[1, 1] = 1.0
        coarse = np.square(x) @ grid.w_sq_coarse.T
        assert np.argmax(coarse, axis=-1).tolist() == [0, grid.w_sq_coarse.shape[0] - 1]


class TestSmoothingBound:
    def test_equal_orders_bounded_by_operator_norm(self):
        op = DiagonalOperator(np.arange(1.0, 17.0))
        c = smoothing_bound_check(op, 0.25, 0.25, trials=64, rng=0)
        assert np.isfinite(c)
        # exp(tA) does not expand the (alpha, inf) norm for a diagonal
        # dissipative operator, so the zero-exponent ratio stays near one
        assert c <= 1.0 + 1e-9

    def test_finite_and_stable_under_grid_refinement(self):
        op = DiagonalOperator(np.arange(1.0, 17.0))
        coarse = smoothing_bound_check(op, 0.25, 0.5, trials=128, rng=1, t_points=64)
        fine = smoothing_bound_check(op, 0.25, 0.5, trials=128, rng=1, t_points=256)
        assert np.isfinite(fine)
        assert fine <= coarse * 1.05 + 1e-12

    def test_invalid_orders_rejected(self):
        op = DiagonalOperator([1.0])
        with pytest.raises(ValueError):
            smoothing_bound_check(op, 0.5, 0.25)
        with pytest.raises(ValueError):
            smoothing_bound_check(op, 0.0, 0.0)
        with pytest.raises(ValueError, match="beta < 1"):
            smoothing_bound_check(op, 0.5, 1.0)


class TestInterpolationInequality:
    def test_sampled_constant_is_stable_under_resampling(self):
        op = DiagonalOperator(np.arange(1.0, 33.0))
        c_emp = estimate_interp_constant(op, 0.3, 0.6, trials=2048, rng=10)
        fresh = estimate_interp_constant(op, 0.3, 0.6, trials=2048, rng=11)
        assert fresh <= 1.1 * c_emp
        # every fresh sample obeys the inequality with the reported constant
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((2000, 32))
        lhs = h_alpha_norm_batch(op, 0.3, xs)
        rhs = h_alpha_norm_batch(op, 0.6, xs) ** 0.5 * np.linalg.norm(xs, axis=-1) ** 0.5
        assert float((lhs / rhs).max()) <= 1.1 * c_emp


class TestConvolution:
    def test_zero_integrand(self):
        op = DiagonalOperator([1.0, 2.0])
        times = np.linspace(0, 1, 11)
        phi = np.zeros((10, 2))
        v = convolve_on_grid(op, times, phi)
        assert np.all(v == 0.0)

    def test_constant_integrand_exact_integral(self):
        # component n: c (1 - exp(-a (T - t)))/a, with the a = 0 limit c (T - t)
        op = DiagonalOperator([0.0, 2.0])
        times = np.linspace(0, 1, 101)
        c = np.array([0.7, -1.3])
        phi = np.tile(c, (100, 1))
        v = convolve_on_grid(op, times, phi)
        for idx in (0, 37, 100):
            t = times[idx]
            expect0 = c[0] * (1.0 - t)
            expect1 = c[1] * (1.0 - math.exp(-2.0 * (1.0 - t))) / 2.0
            np.testing.assert_allclose(v[idx], [expect0, expect1], rtol=1e-12, atol=1e-14)

    def test_terminal_value_zero_exactly(self):
        op = DiagonalOperator([3.0])
        times = np.linspace(0, 2, 21)
        phi = np.random.default_rng(5).standard_normal((20, 1))
        assert np.all(convolve_on_grid(op, times, phi)[-1] == 0.0)

    def test_linearity(self):
        op = DiagonalOperator([1.0, 4.0])
        times = np.linspace(0, 1, 31)
        rng = np.random.default_rng(6)
        p1 = rng.standard_normal((30, 2))
        p2 = rng.standard_normal((30, 2))
        v = convolve_on_grid(op, times, 2.0 * p1 - 3.0 * p2)
        np.testing.assert_allclose(
            v, 2.0 * convolve_on_grid(op, times, p1) - 3.0 * convolve_on_grid(op, times, p2),
            rtol=1e-12, atol=1e-14,
        )

    def test_point_evaluation_matches_grid_and_quadrature(self):
        op = DiagonalOperator([1.5])
        times = np.linspace(0, 1, 41)
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((40, 1))
        grid_vals = convolve_on_grid(op, times, phi)

        def integrand(s, t):
            j = min(int(s / 0.025), 39)
            return math.exp(-1.5 * (s - t)) * phi[j, 0]

        t = times[12]  # 0.3
        oracle = quad(lambda s: integrand(s, t), t, 1.0, limit=400, points=times)[0]
        assert grid_vals[12, 0] == pytest.approx(oracle, rel=1e-6)

    def test_hoelder_bound_with_stable_constant(self):
        # ||v||_{C^(1-alpha)} <= G sup |phi|_H with G stable under refinement
        op = DiagonalOperator(np.arange(1.0, 9.0) ** 2)
        alpha = 0.25
        g_coarse = estimate_g_holder(op, alpha, 1.0, samples=16, grid_sizes=(17, 33), rng=8)
        g_fine = estimate_g_holder(op, alpha, 1.0, samples=16, grid_sizes=(65, 129), rng=8)
        assert np.isfinite(g_fine) and g_fine > 0
        assert g_fine <= 1.25 * g_coarse + 1e-9
        # fresh integrands stay below the estimated constant with margin
        g = max(g_coarse, g_fine)
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 1.0, 65)
        phi = rng.choice([-1.0, 1.0], size=(64, 30, 8))
        v = convolve_on_grid(op, times, phi)
        sup_phi = np.linalg.norm(phi, axis=-1).max(axis=0)
        norms = h_alpha_norm_batch(op, alpha, v)
        i, j = np.triu_indices(65, k=1)
        quot = h_alpha_norm_batch(op, alpha, v[j] - v[i]) / (
            (times[j] - times[i])[:, None] ** (1 - alpha)
        )
        total = norms.max(axis=0) + quot.max(axis=0)
        assert float((total / sup_phi).max()) <= 1.2 * g


class TestConstantsAndConstruction:
    def test_estimate_constants_sane(self):
        op = DiagonalOperator(dirichlet_laplacian_eigenvalues(6))
        c = estimate_constants(op, 0.25, 1.0, rng=0, trials=96)
        assert c.m_alpha == pytest.approx(1.0, abs=1e-9)  # diagonal dissipative
        assert 0 < c.c_alpha < 5
        assert 0 < c.g_holder < 10
        scaled = c.scaled(1.2)
        assert scaled.g_holder == pytest.approx(1.2 * c.g_holder)
        assert scaled.margin == pytest.approx(1.2)
