"""Ensemble statistics and regression conditional-expectation oracles."""
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mildbsde.wiener
from mildbsde.wiener import (
    RegressionBasis,
    TimeGrid,
    _fit,
    conditional_expectation,
    ensemble_nbytes,
    martingale_z_estimate,
    sample_ensemble,
)
from oracles import martingale_z_reference


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
        means = ens.increments[:, :, 0].mean(axis=1)
        assert np.all(np.abs(means) < 4.0 * np.sqrt(dt / m))

    def test_quadratic_variation_near_horizon(self):
        # E sum (dW)^2 = T with variance 2 dt T; the M-averaged estimate is tight
        grid = TimeGrid.uniform(1.0, 100)
        ens = sample_ensemble(grid, 1, 4000, seed=4)
        qv = np.sum(ens.increments[:, :, 0] ** 2, axis=0).mean()
        assert abs(qv - 1.0) < 0.05

    def test_increment_covariance_identity(self):
        grid = TimeGrid.uniform(1.0, 5)
        ens = sample_ensemble(grid, 3, 20000, seed=5)
        step = ens.increments[2]
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
        np.testing.assert_array_equal(large.increments[:, :700], small.increments)

    def test_paths_cumulative(self):
        grid = TimeGrid.uniform(1.0, 6)
        ens = sample_ensemble(grid, 2, 10, seed=13)
        assert np.all(ens.path_at(0) == 0.0)
        np.testing.assert_allclose(ens.path_at(6), ens.increments.sum(axis=0), rtol=1e-12)

    def test_paths_bit_identical_to_cumsum_and_node_contiguous(self):
        grid = TimeGrid.uniform(1.0, 7)
        ens = sample_ensemble(grid, 3, 40, seed=14)
        expect = np.concatenate([np.zeros((1, 40, 3)), np.cumsum(ens.increments, axis=0)])
        for l in range(grid.n_steps + 1):
            w = ens.path_at(l)
            assert w.shape == (40, 3)
            assert w.tobytes() == expect[l].tobytes()
            assert w.flags.c_contiguous


def path_major_draw(grid, k, m, seed):
    """Increments (M, L, K) drawn with one standard_normal call per block of 1024 paths."""
    out = np.empty((m, grid.n_steps, k))
    children = np.random.SeedSequence(seed).spawn((m + 1023) // 1024)
    for b, child in enumerate(children):
        np.random.default_rng(child).standard_normal(out=out[b * 1024 : (b + 1) * 1024])
    out *= np.sqrt(grid.deltas)[None, :, None]
    return out


def _not_a_multiple_of_128(m):
    return m if m % 128 else m + 1


class TestPathAccess:
    """Node-major increments and W rebuilt from checkpoints, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3000).map(_not_a_multiple_of_128),
        steps=st.integers(1, 60),
        k=st.integers(1, 4),
        seed=st.integers(0, 2 ** 32 - 1),
        order=st.sampled_from(["ascending", "descending", "shuffled"]),
    )
    def test_path_at_equals_cumsum_in_any_order(self, m, steps, k, seed, order):
        grid = TimeGrid.uniform(1.0, steps)
        ens = sample_ensemble(grid, k, m, seed=seed)
        assert ens.increments.shape == (steps, m, k)
        expect = np.cumsum(ens.increments, axis=0)
        nodes = list(range(steps + 1))
        if order == "descending":
            nodes.reverse()
        elif order == "shuffled":
            np.random.default_rng(seed).shuffle(nodes)
        for l in nodes:
            w = ens.path_at(l)
            assert w.shape == (m, k)
            if l == 0:
                assert not w.any()
            else:
                assert w.tobytes() == expect[l - 1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3000).map(_not_a_multiple_of_128),
        steps=st.integers(1, 60),
        k=st.integers(1, 4),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_node_major_draw_is_the_transposed_block_draw(self, m, steps, k, seed):
        grid = TimeGrid.uniform(1.0, steps)
        ens = sample_ensemble(grid, k, m, seed=seed)
        expect = np.ascontiguousarray(path_major_draw(grid, k, m, seed).transpose(1, 0, 2))
        assert ens.increments.flags.c_contiguous
        assert ens.increments.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("m, steps, k", [(4000, 80, 6), (10000, 40, 5)],
                             ids=["reaction-diffusion", "spin-chain"])
    def test_preset_path_counts_draw_the_block_draw(self, m, steps, k):
        # the presets' path counts, 4 and 10 blocks split between two threads
        grid = TimeGrid.uniform(1.0, steps)
        ens = sample_ensemble(grid, k, m, seed=m)
        expect = np.ascontiguousarray(path_major_draw(grid, k, m, m).transpose(1, 0, 2))
        assert ens.increments.tobytes() == expect.tobytes()

    def test_worker_error_surfaces_and_no_thread_is_left(self, monkeypatch):
        start = threading.active_count()
        sample_ensemble(TimeGrid.uniform(1.0, 10), 2, 3000, seed=1)
        assert threading.active_count() == start
        default_rng, on_main = np.random.default_rng, []

        def failing(seed_seq):
            if seed_seq.spawn_key == (1,):  # block 1, an odd one
                on_main.append(threading.current_thread() is threading.main_thread())
                raise RuntimeError("block 1 failed")
            return default_rng(seed_seq)

        monkeypatch.setattr(np.random, "default_rng", failing)
        with pytest.raises(RuntimeError, match="block 1 failed"):
            sample_ensemble(TimeGrid.uniform(1.0, 10), 2, 3000, seed=1)
        assert on_main == [False]
        assert threading.active_count() == start

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 300),
        steps=st.integers(1, 60),
        k=st.integers(1, 4),
        seed=st.integers(0, 2 ** 32 - 1),
        order=st.sampled_from(["ascending", "descending", "shuffled"]),
    )
    def test_caller_owns_path_at(self, m, steps, k, seed, order):
        # writing into one node's W changes no node read later, checkpoints included
        ens = sample_ensemble(TimeGrid.uniform(1.0, steps), k, m, seed=seed)
        expect = np.concatenate([np.zeros((1, m, k)), np.cumsum(ens.increments, axis=0)])
        nodes = list(range(steps + 1))
        if order == "descending":
            nodes.reverse()
        elif order == "shuffled":
            np.random.default_rng(seed).shuffle(nodes)
        for l in nodes:
            w = ens.path_at(l)
            w += 1.0
            w[0, 0] = np.nan
            assert ens.path_at(l).tobytes() == expect[l].tobytes()
        for j in range(steps + 1):
            assert ens.path_at(j).tobytes() == expect[j].tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 3, 9, 10, 16, 37, 80, 200])
    def test_ensemble_nbytes_counts_what_the_ensemble_holds(self, steps):
        ens = sample_ensemble(TimeGrid.uniform(1.0, steps), 3, 50, seed=steps)
        w = ens.path_at(steps)
        held = ens.increments.nbytes + ens._checkpoints.nbytes + w.nbytes
        assert ensemble_nbytes(steps, 50, 3) == held
        assert len(ens._checkpoints) <= math.isqrt(steps) + 2

    def test_checkpoints_assigned_only_once_filled(self, monkeypatch):
        # a second thread reading the ensemble sees either no checkpoints or
        # every row of them, never rows still being summed
        ens = sample_ensemble(TimeGrid.uniform(1.0, 40), 2, 30, seed=4)
        fill = mildbsde.wiener._checkpoint_rows
        filled = []

        def checked_fill(increments, c):
            rows = fill(increments, c)
            assert ens._checkpoints is None  # nothing published during the fill
            filled.append(rows)
            return rows

        monkeypatch.setattr(mildbsde.wiener, "_checkpoint_rows", checked_fill)
        w = ens.path_at(40)
        assert len(filled) == 1 and ens._checkpoints is filled[0]
        ens.path_at(3)
        assert len(filled) == 1
        assert w.tobytes() == ens.increments.cumsum(axis=0)[-1].tobytes()

    def test_concurrent_first_reads_get_whole_checkpoints(self):
        # four threads read fresh ensembles at once, switching every 10 us;
        # each gets W_L bit for bit, never a row of a fill still running
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for seed in range(10):
                ens = sample_ensemble(TimeGrid.uniform(1.0, 400), 1, 64, seed=seed)
                expect = ens.increments.cumsum(axis=0)[-1].tobytes()
                start, got = threading.Barrier(4), []

                def read():
                    start.wait(timeout=60.0)
                    got.append(ens.path_at(400).tobytes())

                runs = [threading.Thread(target=read) for _ in range(4)]
                for run in runs:
                    run.start()
                for run in runs:
                    run.join(timeout=60.0)
                assert not any(run.is_alive() for run in runs)
                assert got == [expect] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_nodes_outside_the_grid_rejected(self):
        ens = sample_ensemble(TimeGrid.uniform(1.0, 4), 1, 10, seed=1)
        for l in (-1, 5):
            with pytest.raises(IndexError):
                ens.path_at(l)


@pytest.fixture(scope="module")
def big_ensemble():
    grid = TimeGrid.uniform(1.0, 20)
    return sample_ensemble(grid, 1, 100000, seed=42)


class TestConditionalExpectation:
    def test_projection_reproduces_basis_column(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=0.0)
        mid = 10
        w = big_ensemble.path_at(mid)[:, 0]
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
        w_t = big_ensemble.path_at(mid)[:, 0]
        w_end = big_ensemble.path_at(big_ensemble.grid.n_steps)[:, 0]
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
        w_t = big_ensemble.path_at(mid)[:, 0]
        w_end = big_ensemble.path_at(big_ensemble.grid.n_steps)[:, 0]
        fit = conditional_expectation(big_ensemble, basis, mid, w_end ** 2)
        target = w_t ** 2 + 0.5
        rel = np.sqrt(np.mean((fit.fitted - target) ** 2) / np.mean(target ** 2))
        assert rel < 0.02

    def test_residual_orthogonality(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=0.0)
        mid = 14
        w_end = big_ensemble.path_at(big_ensemble.grid.n_steps)[:, 0]
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
                [big_ensemble.increments[:mid], big_ensemble.increments[mid:, perm]],
                axis=0,
            ),
            seed=big_ensemble.seed,
        )
        targets = np.cos(big_ensemble.path_at(mid)[:, 0])
        a = conditional_expectation(big_ensemble, basis, mid, targets)
        b = conditional_expectation(shuffled, basis, mid, targets)
        np.testing.assert_array_equal(
            basis.design(big_ensemble, mid), basis.design(shuffled, mid)
        )
        np.testing.assert_array_equal(a.fitted, b.fitted)

    def test_tower_property(self, big_ensemble):
        basis = RegressionBasis(degree=2, ridge=1e-10)
        early, late = 5, 15
        w_end = big_ensemble.path_at(big_ensemble.grid.n_steps)[:, 0]
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
        w0, w1 = ens.path_at(4)[:, 0], ens.path_at(4)[:, 1]
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
        targets = np.sin(ens.path_at(ens.grid.n_steps)[:, 0])
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
        z = martingale_z_estimate(big_ensemble, basis, 4, nxt).fitted
        # centering removes the deterministic part up to ridge shrinkage,
        # orders of magnitude below the Monte Carlo standard error
        assert np.max(np.abs(z)) < 1e-6

    def test_brownian_representation_slope_one(self, big_ensemble):
        # terminal W_T has stochastic-integral density 1
        basis = RegressionBasis(degree=2, ridge=1e-8)
        mid = 10
        w_next = big_ensemble.path_at(mid + 1)[:, 0][:, None]
        z = martingale_z_estimate(big_ensemble, basis, mid, w_next).fitted
        assert abs(z.mean() - 1.0) < 0.05

    def test_squared_brownian_slope_two(self, big_ensemble):
        # d(W^2) = 2 W dW + dt, so the density at t is 2 W_t
        basis = RegressionBasis(degree=2, ridge=1e-8)
        mid = 10
        w_t = big_ensemble.path_at(mid)[:, 0]
        w_next = big_ensemble.path_at(mid + 1)[:, 0][:, None] ** 2
        z = martingale_z_estimate(big_ensemble, basis, mid, w_next).fitted[:, 0, 0]
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
        nxt = np.stack([np.sin(ens.path_at(node + 1)[:, 0]),
                        ens.path_at(node + 1)[:, 1] ** 2], axis=1)
        centered = nxt - conditional_expectation(ens, basis, node, nxt).fitted
        dw = ens.increments[node]
        targets = (centered[:, :, None] * dw[:, None, :] / grid.deltas[node]).reshape(3000, -1)
        expect = conditional_expectation(ens, basis, node, targets).fitted.reshape(3000, 2, 2)

        design = RegressionBasis.design
        calls = []

        def counted_design(self, ensemble, t_index):
            calls.append(t_index)
            return design(self, ensemble, t_index)

        monkeypatch.setattr(RegressionBasis, "design", counted_design)
        z = martingale_z_estimate(ens, basis, node, nxt).fitted
        assert calls == [node]
        np.testing.assert_array_equal(z, expect)

    def test_shapes(self, big_ensemble):
        basis = RegressionBasis(degree=1)
        nxt = np.random.default_rng(1).standard_normal((big_ensemble.n_paths, 3))
        z = martingale_z_estimate(big_ensemble, basis, 2, nxt).fitted
        assert z.shape == (big_ensemble.n_paths, 3, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        paths=st.integers(1, 300),
        noise=st.integers(1, 4),
        dim=st.integers(1, 5),
        degree=st.integers(0, 3),
        coords=st.integers(1, 4),
        ridge=st.sampled_from([1e-8, 0.0]),
        node=st.integers(0, 2),
        seed=st.integers(0, 2 ** 16),
    )
    def test_design_times_coef_rebuilds_z_bit_for_bit(
        self, paths, noise, dim, degree, coords, ridge, node, seed
    ):
        # the coupled solve keeps Z as coefficients and rebuilds it from a fresh
        # design of its node; both ridge paths must give Z's exact bytes back
        ens = sample_ensemble(TimeGrid.uniform(1.0, 3), noise, paths, seed=seed)
        basis = RegressionBasis(degree=degree, n_coords=coords, ridge=ridge)
        nxt = np.sin(np.random.default_rng(seed).standard_normal((paths, dim)))
        fit = martingale_z_estimate(ens, basis, node, nxt)
        design = basis.design(ens, node)
        assert fit.coef.shape == (design.shape[1], dim * noise)
        rebuilt = np.dot(design, fit.coef).reshape(paths, dim, noise)
        assert rebuilt.dtype == fit.fitted.dtype and rebuilt.shape == fit.fitted.shape
        assert rebuilt.tobytes() == fit.fitted.tobytes()
        assert fit.design.tobytes() == design.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        noise=st.integers(1, 8),
        dim=st.integers(1, 8),
        degree=st.integers(1, 3),
        coords=st.integers(1, 8),
        ridge=st.sampled_from([1e-8, 0.0]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_path_contiguous_targets_give_the_reference_bytes(
        self, data, noise, dim, degree, coords, ridge, seed
    ):
        # the estimate forms its targets as (N, K, M) products read through a
        # transposed view; coef and Z keep the bytes of the path-major targets
        basis = RegressionBasis(degree=degree, n_coords=coords, ridge=ridge)
        paths = data.draw(st.integers(basis.n_features(noise), 3000), label="paths")
        ens = sample_ensemble(TimeGrid.uniform(1.0, 3), noise, paths, seed=seed)
        nxt = np.sin(np.random.default_rng(seed).standard_normal((paths, dim)))
        fit = martingale_z_estimate(ens, basis, 1, nxt)
        expect = martingale_z_reference(ens, basis, 1, nxt)
        assert fit.coef.tobytes() == expect.coef.tobytes()
        assert fit.fitted.tobytes() == expect.fitted.tobytes()
        assert fit.fitted.shape == (paths, dim, noise)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        noise=st.integers(1, 6),
        degree=st.integers(1, 3),
        coords=st.integers(1, 6),
        columns=st.integers(1, 48),
        ridge=st.sampled_from([1e-8, 0.0]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_fit_keeps_its_bytes_on_f_ordered_targets(
        self, data, noise, degree, coords, columns, ridge, seed
    ):
        # with B >= 2 features, np.dot(phi.T, targets) and the solve give the same bits
        # whether the targets are C- or F-ordered, which the Z estimate's
        # transposed view needs
        basis = RegressionBasis(degree=degree, n_coords=coords, ridge=ridge)
        paths = data.draw(st.integers(basis.n_features(noise), 3000), label="paths")
        ens = sample_ensemble(TimeGrid.uniform(1.0, 2), noise, paths, seed=seed)
        phi = basis.design(ens, 1)
        assert phi.shape[1] >= 2
        targets = np.random.default_rng(seed).standard_normal((paths, columns))
        c_fit = _fit(ens, basis, 1, phi, targets)
        f_fit = _fit(ens, basis, 1, phi, np.asfortranarray(targets))
        assert f_fit.coef.tobytes() == c_fit.coef.tobytes()
        assert f_fit.fitted.tobytes() == c_fit.fitted.tobytes()

    def test_node_exit_holds_one_z(self):
        # the targets are dropped before Z is formed, so one estimate on a held
        # design never holds the (N, K, M) targets and the fitted Z at once
        m, n, k = 4000, 5, 5
        ens = sample_ensemble(TimeGrid.uniform(1.0, 4), k, m, seed=36)
        basis = RegressionBasis(degree=2)
        design = basis.design(ens, 2)
        nxt = np.sin(np.random.default_rng(36).standard_normal((m, n)))
        tracemalloc.start()
        try:
            fit = martingale_z_estimate(ens, basis, 2, nxt, design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.9 * fit.fitted.nbytes

    def test_final_node_rejected(self, big_ensemble):
        basis = RegressionBasis()
        nxt = np.zeros((big_ensemble.n_paths, 1))
        with pytest.raises(ValueError):
            martingale_z_estimate(big_ensemble, basis, big_ensemble.grid.n_steps, nxt)
