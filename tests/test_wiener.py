"""Ensemble statistics and regression conditional-expectation oracles."""
import numpy as np
import pytest

from mildbsde.wiener import (
    RegressionBasis,
    TimeGrid,
    conditional_expectation,
    martingale_z_estimate,
    sample_ensemble,
)


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.horizon == 2.0
        assert grid.n_steps == 4

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
        with pytest.raises(ValueError):
            TimeGrid.uniform(-1.0, 10)


class TestSampling:
    def test_rejects_bad_counts(self):
        grid = TimeGrid.uniform(1.0, 10)
        with pytest.raises(ValueError):
            sample_ensemble(grid, 0, 10, seed=1)
        with pytest.raises(ValueError):
            sample_ensemble(grid, 1, 0, seed=1)

    def test_increment_mean_within_clt_band(self):
        grid = TimeGrid.uniform(1.0, 20)
        m = 10000
        ens = sample_ensemble(grid, 1, m, seed=3)
        dt = grid.deltas[0]
        means = ens.increments[:, :, 0].mean(axis=0)
        assert np.all(np.abs(means) < 4.0 * np.sqrt(dt / m))

    def test_quadratic_variation_near_horizon(self):
        # E sum (dW)^2 = T with variance 2 dt T; the M-averaged estimate is tight
        grid = TimeGrid.uniform(1.0, 100)
        ens = sample_ensemble(grid, 1, 4000, seed=4)
        qv = np.sum(ens.increments[:, :, 0] ** 2, axis=1).mean()
        assert abs(qv - 1.0) < 0.05

    def test_increment_covariance_identity(self):
        grid = TimeGrid.uniform(1.0, 5)
        ens = sample_ensemble(grid, 3, 20000, seed=5)
        step = ens.increments[:, 2, :]
        cov = step.T @ step / step.shape[0]
        np.testing.assert_allclose(cov, grid.deltas[2] * np.eye(3), atol=0.01)

    def test_same_seed_bit_identical(self):
        grid = TimeGrid.uniform(1.0, 17)
        a = sample_ensemble(grid, 2, 300, seed=11)
        b = sample_ensemble(grid, 2, 300, seed=11)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_growing_m_preserves_existing_paths(self):
        grid = TimeGrid.uniform(1.0, 9)
        small = sample_ensemble(grid, 2, 700, seed=12)
        large = sample_ensemble(grid, 2, 2500, seed=12)
        np.testing.assert_array_equal(large.increments[:700], small.increments)

    def test_paths_cumulative(self):
        grid = TimeGrid.uniform(1.0, 6)
        ens = sample_ensemble(grid, 2, 10, seed=13)
        w = ens.paths()
        assert np.all(w[:, 0, :] == 0.0)
        np.testing.assert_allclose(w[:, -1, :], ens.increments.sum(axis=1), rtol=1e-12)

    def test_paths_bit_identical_to_cumsum_and_node_contiguous(self):
        grid = TimeGrid.uniform(1.0, 7)
        ens = sample_ensemble(grid, 3, 40, seed=14)
        w = ens.paths()
        expect = np.concatenate([np.zeros((40, 1, 3)), np.cumsum(ens.increments, axis=1)], axis=1)
        assert w.shape == expect.shape
        assert w.tobytes() == expect.tobytes()
        for l in range(grid.n_steps + 1):
            assert w[:, l, :].flags.c_contiguous


@pytest.fixture(scope="module")
def big_ensemble():
    grid = TimeGrid.uniform(1.0, 20)
    return sample_ensemble(grid, 1, 100000, seed=42)


class TestConditionalExpectation:
    def test_projection_reproduces_basis_column(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=0.0)
        mid = 10
        w = big_ensemble.paths()[:, mid, 0]
        fit = conditional_expectation(big_ensemble, basis, mid, w)
        np.testing.assert_allclose(fit.fitted, w, atol=1e-10)
        assert not fit.rank_deficient

    def test_rank_deficiency_flagged(self, big_ensemble):
        # at t = 0 every path feature is zero except the intercept
        basis = RegressionBasis(degree=2, ridge=0.0)
        fit = conditional_expectation(big_ensemble, basis, 0, np.ones(big_ensemble.n_paths))
        assert fit.rank_deficient

    def test_martingale_conditioning(self, big_ensemble):
        # E[W_T | W_t] = W_t: coefficients (0, 1, 0) up to sampling error
        basis = RegressionBasis(degree=2, ridge=0.0)
        mid = 10
        w_t = big_ensemble.paths()[:, mid, 0]
        w_end = big_ensemble.paths()[:, -1, 0]
        fit = conditional_expectation(big_ensemble, basis, mid, w_end)
        m = big_ensemble.n_paths
        t, horizon = 0.5, 1.0
        se_slope = np.sqrt((horizon - t) / (m * t))  # residual var / feature var
        assert abs(fit.coef[1] - 1.0) < 3.0 * se_slope
        assert abs(fit.coef[0]) < 3.0 * np.sqrt((horizon - t) / m)

    def test_second_moment_conditioning(self, big_ensemble):
        # E[W_T^2 | W_t] = W_t^2 + (T - t)
        basis = RegressionBasis(degree=2, ridge=1e-10)
        mid = 10
        w_t = big_ensemble.paths()[:, mid, 0]
        w_end = big_ensemble.paths()[:, -1, 0]
        fit = conditional_expectation(big_ensemble, basis, mid, w_end ** 2)
        target = w_t ** 2 + 0.5
        rel = np.sqrt(np.mean((fit.fitted - target) ** 2) / np.mean(target ** 2))
        assert rel < 0.02

    def test_residual_orthogonality(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=0.0)
        mid = 14
        w_end = big_ensemble.paths()[:, -1, 0]
        fit = conditional_expectation(big_ensemble, basis, mid, np.sin(w_end))
        phi = basis.design(big_ensemble, mid)
        resid = np.sin(w_end) - fit.fitted
        inner = np.abs(phi.T @ resid)
        scale = np.linalg.norm(resid) * np.linalg.norm(phi, axis=0)
        assert np.all(inner <= 1e-8 * scale)

    def test_adaptedness_under_future_permutation(self, big_ensemble):
        # permuting increments with index >= l across paths changes neither
        # features nor fitted values for fixed targets
        basis = RegressionBasis(degree=2, ridge=1e-8)
        mid = 10
        rng = np.random.default_rng(0)
        perm = rng.permutation(big_ensemble.n_paths)
        shuffled = type(big_ensemble)(
            grid=big_ensemble.grid,
            increments=np.concatenate(
                [big_ensemble.increments[:, :mid, :], big_ensemble.increments[perm, mid:, :]],
                axis=1,
            ),
            seed=big_ensemble.seed,
        )
        targets = np.cos(big_ensemble.paths()[:, mid, 0])
        a = conditional_expectation(big_ensemble, basis, mid, targets)
        b = conditional_expectation(shuffled, basis, mid, targets)
        np.testing.assert_array_equal(
            basis.design(big_ensemble, mid), basis.design(shuffled, mid)
        )
        np.testing.assert_array_equal(a.fitted, b.fitted)

    def test_tower_property(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=1e-10)
        early, late = 5, 15
        w_end = big_ensemble.paths()[:, -1, 0]
        target = w_end ** 2
        inner = conditional_expectation(big_ensemble, basis, late, target).fitted
        towered = conditional_expectation(big_ensemble, basis, early, inner).fitted
        direct = conditional_expectation(big_ensemble, basis, early, target).fitted
        rel = np.sqrt(np.mean((towered - direct) ** 2) / np.mean(direct ** 2))
        assert rel < 0.02

    def test_nonfinite_targets_rejected(self, big_ensemble):
        basis = RegressionBasis()
        targets = np.zeros(big_ensemble.n_paths)
        targets[0] = np.inf
        with pytest.raises(ValueError):
            conditional_expectation(big_ensemble, basis, 3, targets)


class TestRegressionBasis:
    @pytest.mark.parametrize("ridge", [-1e-8, np.nan, np.inf])
    def test_bad_ridge_rejected(self, ridge):
        # a NaN ridge would silently take the ridge-free path: NaN > 0 is False
        with pytest.raises(ValueError, match="ridge finite and nonnegative"):
            RegressionBasis(ridge=ridge)

    def test_design_is_left_to_right_monomial_products(self):
        ens = sample_ensemble(TimeGrid.uniform(1.0, 5), 3, 64, seed=15)
        w0, w1 = ens.paths()[:, 4, 0], ens.paths()[:, 4, 1]
        expect = np.stack(
            [np.ones(64), w0, w1, w0 * w0, w0 * w1, w1 * w1,
             w0 * w0 * w0, w0 * w0 * w1, w0 * w1 * w1, w1 * w1 * w1],
            axis=1,
        )
        phi = RegressionBasis(degree=3, n_coords=2).design(ens, 4)
        assert phi.flags.c_contiguous
        np.testing.assert_array_equal(phi, expect)


class TestGramCache:
    def test_bases_sharing_a_node_keep_their_own_gram(self):
        # the cache is keyed by basis and node: a basis with another ridge
        # fitted at the same node must not reuse the first basis's matrix
        grid = TimeGrid.uniform(1.0, 10)
        ens = sample_ensemble(grid, 2, 2000, seed=16)
        targets = np.sin(ens.paths()[:, -1, 0])
        bases = (RegressionBasis(degree=2, ridge=1e-2), RegressionBasis(degree=2, ridge=1e-8))
        cold = [
            conditional_expectation(sample_ensemble(grid, 2, 2000, seed=16), b, 5, targets)
            for b in bases
        ]
        for basis, expect in zip(bases, cold):
            warm = conditional_expectation(ens, basis, 5, targets)
            np.testing.assert_array_equal(warm.coef, expect.coef)
            np.testing.assert_array_equal(warm.fitted, expect.fitted)
        assert len(ens._ridged_gram) == 2


class TestMartingaleZ:
    def test_deterministic_next_value_gives_zero(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=1e-8)
        nxt = np.full((big_ensemble.n_paths, 1), 3.7)
        z = martingale_z_estimate(big_ensemble, basis, 4, nxt)
        # centering removes the deterministic part up to ridge shrinkage,
        # orders of magnitude below the Monte Carlo standard error
        assert np.max(np.abs(z)) < 1e-6

    def test_brownian_representation_slope_one(self, big_ensemble):
        # terminal W_T has stochastic-integral density 1
        basis = RegressionBasis(degree=2, ridge=1e-8)
        mid = 10
        w_next = big_ensemble.paths()[:, mid + 1, 0][:, None]
        z = martingale_z_estimate(big_ensemble, basis, mid, w_next)
        assert abs(z.mean() - 1.0) < 0.05

    def test_squared_brownian_slope_two(self, big_ensemble):
        # d(W^2) = 2 W dW + dt, so the density at t is 2 W_t
        basis = RegressionBasis(degree=2, ridge=1e-8)
        mid = 10
        w_t = big_ensemble.paths()[:, mid, 0]
        w_next = big_ensemble.paths()[:, mid + 1, 0][:, None] ** 2
        z = martingale_z_estimate(big_ensemble, basis, mid, w_next)[:, 0, 0]
        slope = np.cov(z, w_t)[0, 1] / np.var(w_t)
        assert abs(slope - 2.0) < 0.1

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    def test_equals_two_stage_definition_with_one_design(self, monkeypatch, ridge):
        # centring by one fit, then a fit of centred (x) dW / dt, bit for bit;
        # the estimate builds its node's design once for both fits
        grid = TimeGrid.uniform(1.0, 8)
        ens = sample_ensemble(grid, 2, 3000, seed=23)
        basis = RegressionBasis(degree=2, ridge=ridge)
        node = 3
        nxt = np.stack([np.sin(ens.paths()[:, node + 1, 0]),
                        ens.paths()[:, node + 1, 1] ** 2], axis=1)
        centered = nxt - conditional_expectation(ens, basis, node, nxt).fitted
        dw = ens.increments[:, node, :]
        targets = (centered[:, :, None] * dw[:, None, :] / grid.deltas[node]).reshape(3000, -1)
        expect = conditional_expectation(ens, basis, node, targets).fitted.reshape(3000, 2, 2)

        design = RegressionBasis.design
        calls = []

        def counted_design(self, ensemble, t_index):
            calls.append(t_index)
            return design(self, ensemble, t_index)

        monkeypatch.setattr(RegressionBasis, "design", counted_design)
        z = martingale_z_estimate(ens, basis, node, nxt)
        assert calls == [node]
        np.testing.assert_array_equal(z, expect)

    def test_shapes(self, big_ensemble):
        basis = RegressionBasis(degree=1)
        nxt = np.random.default_rng(1).standard_normal((big_ensemble.n_paths, 3))
        z = martingale_z_estimate(big_ensemble, basis, 2, nxt)
        assert z.shape == (big_ensemble.n_paths, 3, 1)

    def test_final_node_rejected(self, big_ensemble):
        basis = RegressionBasis()
        nxt = np.zeros((big_ensemble.n_paths, 1))
        with pytest.raises(ValueError):
            martingale_z_estimate(big_ensemble, basis, big_ensemble.grid.n_steps, nxt)
