"""Model builders against finite-difference, direct-summation and symbolic oracles."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mildbsde.models import (
    ReactionDiffusionSpec,
    SpinSpec,
    ValidationError,
    build_preset,
    build_reaction_diffusion,
    build_spin_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    sample_growth_and_lipschitz,
    spin_drift_fn,
    validate_problem,
)
from mildbsde.solver import DissipativeDrift, SolverConfig, general_solve
from mildbsde.spectral import h_alpha_norm_batch
from mildbsde.wiener import RegressionBasis, TimeGrid, sample_ensemble


class TestReactionDiffusion:
    def test_eigenvalues_match_finite_difference_oracle(self):
        # second-difference matrix on a fine mesh approximates m^2 on (0, pi)
        from scipy.linalg import eigvalsh_tridiagonal

        prob = build_reaction_diffusion(ReactionDiffusionSpec(modes=6))
        n_mesh = 20000
        h = math.pi / (n_mesh + 1)
        main = 2.0 / h ** 2 * np.ones(n_mesh)
        off = -1.0 / h ** 2 * np.ones(n_mesh - 1)
        oracle = eigvalsh_tridiagonal(main, off, select="i", select_range=(0, 5))
        np.testing.assert_allclose(prob.operator.eigenvalues, oracle, rtol=1e-6)
        np.testing.assert_allclose(prob.operator.eigenvalues, np.arange(1, 7) ** 2, rtol=1e-6)

    def test_growth_bound_on_fresh_samples(self):
        prob = build_reaction_diffusion(ReactionDiffusionSpec(modes=6))
        rng = np.random.default_rng(123)
        op, alpha = prob.operator, prob.alpha
        x = rng.standard_normal((10000, 6))
        norms = h_alpha_norm_batch(op, alpha, x)
        scale = 5.0 * rng.uniform(0.05, 1.0, size=10000) / np.maximum(norms, 1e-12)
        y = x * scale[:, None]
        vals = np.linalg.norm(prob.f0(0.0, y), axis=-1)
        bound = prob.f0.growth_scale * (1.0 + h_alpha_norm_batch(op, alpha, y) ** 3)
        assert np.all(vals <= bound * (1.0 + 1e-9))

    def test_dissipative_and_odd(self):
        prob = build_reaction_diffusion(ReactionDiffusionSpec(modes=5))
        rng = np.random.default_rng(5)
        y1 = rng.standard_normal((500, 5))
        y2 = rng.standard_normal((500, 5))
        inner = np.sum((prob.f0(0.0, y1) - prob.f0(0.0, y2)) * (y1 - y2), axis=-1)
        assert inner.max() <= 1e-10
        np.testing.assert_allclose(prob.f0(0.0, -y1), -prob.f0(0.0, y1), atol=1e-12)

    def test_projection_roundtrip_exact(self):
        # the collocation rule is an exact quadrature for the retained modes
        from mildbsde.models import _SineCollocation

        grid = _SineCollocation(6, math.pi)
        coef = np.random.default_rng(6).standard_normal((10, 6))
        back = grid.coefficients(grid.pointwise(coef))
        np.testing.assert_allclose(back, coef, rtol=1e-12, atol=1e-13)

    def test_linear_case_is_heat_semigroup(self):
        # r = 0, g = 0, deterministic terminal: Y(t) = exp((T-t)A) xi
        spec = ReactionDiffusionSpec(modes=4, terminal_noise=0.0)
        prob = build_reaction_diffusion(spec)
        prob.f0 = DissipativeDrift(
            fn=lambda t, y: np.zeros_like(y), growth_scale=0.0, growth_power=2.0
        )
        prob.f1 = None
        prob.validated = True
        grid = TimeGrid.uniform(1.0, 40)
        ens = sample_ensemble(grid, 4, 2000, seed=9)
        sol, rep = general_solve(prob, ens, RegressionBasis(degree=2, n_coords=2), SolverConfig())
        xi = prob.terminal(ens)
        a = prob.operator.eigenvalues
        for l in (0, 20, 40):
            expect = np.exp(-a * (1.0 - grid.times[l])) * xi
            np.testing.assert_allclose(sol.y[l], expect, atol=5e-4)

    def test_gamma_alpha_constraint_rejected(self):
        with pytest.raises(ValidationError, match="growth-exponent"):
            ReactionDiffusionSpec(modes=4, alpha=0.4)  # 3 * 0.4 >= 1

    def test_driver_bounded_and_lipschitz(self):
        prob = build_reaction_diffusion(ReactionDiffusionSpec(modes=6))
        rng = np.random.default_rng(11)
        y1 = rng.standard_normal((400, 6))
        y2 = rng.standard_normal((400, 6))
        z = rng.standard_normal((400, 6, 6))
        vals = np.linalg.norm(prob.f1(0.0, y1, z), axis=-1)
        assert vals.max() <= prob.f1.bound * (1.0 + 1e-9)
        num = np.linalg.norm(prob.f1(0.0, y1, z) - prob.f1(0.0, y2, z), axis=-1)
        den = np.linalg.norm(y1 - y2, axis=-1)
        assert (num / den).max() <= prob.f1.lipschitz_const * (1.0 + 1e-9)


class TestSpinSystem:
    def test_coupling_against_direct_summation(self):
        # sites {-1, 0, 1}, cubic coupling, y = (0, 1, 0) with zero padding
        f0 = spin_drift_fn(k=1)
        y = np.array([[0.0, 1.0, 0.0]])
        got = f0(0.0, y)[0]

        def direct(y_row):
            padded = np.concatenate([[0.0], y_row, [0.0]])
            out = np.zeros_like(y_row)
            for j in range(len(y_row)):
                jj = j + 1
                out[j] = (padded[jj + 1] - padded[jj]) ** 3 + (padded[jj - 1] - padded[jj]) ** 3
            return out

        np.testing.assert_allclose(got, direct(y[0]), rtol=1e-15)
        np.testing.assert_allclose(got, [1.0, -2.0, 1.0], rtol=1e-15)

    def test_random_states_match_direct_summation(self):
        f0 = spin_drift_fn(k=2)
        rng = np.random.default_rng(21)
        ys = rng.standard_normal((50, 7))
        got = f0(0.0, ys)
        for row, y_row in zip(got, ys):
            padded = np.concatenate([[0.0], y_row, [0.0]])
            expect = [
                (padded[j + 2] - padded[j + 1]) ** 5 + (padded[j] - padded[j + 1]) ** 5
                for j in range(7)
            ]
            np.testing.assert_allclose(row, expect, rtol=1e-12)

    def test_constant_state_interior_vanishes(self):
        f0 = spin_drift_fn(k=1)
        y = 0.7 * np.ones((1, 5))
        out = f0(0.0, y)[0]
        np.testing.assert_allclose(out[1:-1], 0.0, atol=1e-15)
        assert out[0] != 0.0 and out[-1] != 0.0  # zero padding acts at the edges

    def test_odd_symmetry(self):
        f0 = spin_drift_fn(k=1)
        y = np.random.default_rng(22).standard_normal((30, 5))
        np.testing.assert_allclose(f0(0.0, -y), -f0(0.0, y), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 3),
        y=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 7)),
            elements=st.floats(-4.0, 4.0, allow_subnormal=False),
        ),
        c=st.floats(-4.0, 4.0, allow_subnormal=False),
    )
    def test_multiplied_power_properties(self, k, y, c):
        f0 = spin_drift_fn(k)
        p = 2 * k + 1
        got = f0(0.0, y)
        padded = np.pad(y, [(0, 0), (1, 1)])
        d_plus = padded[:, 2:] - padded[:, 1:-1]
        d_minus = padded[:, :-2] - padded[:, 1:-1]
        # rtol 1e-13 of the two terms' size: their sum may cancel, the terms do not
        scale = np.abs(d_plus) ** p + np.abs(d_minus) ** p
        tiny = np.finfo(float).tiny
        assert np.all(np.abs(got - (d_plus ** p + d_minus ** p)) <= 1e-13 * scale + tiny)
        np.testing.assert_array_equal(f0(0.0, -y), -got)
        const = f0(0.0, np.full_like(y, c))
        assert np.all(const[:, 1:-1] == 0.0)

    def test_growth_chain_bound(self):
        # |f0(y)| <= 2^(2k+2) (1 + ||y||^(2k+1)) via the sequence-norm chain
        prob = build_spin_system(SpinSpec())
        rng = np.random.default_rng(23)
        y = 3.0 * rng.standard_normal((5000, 5))
        vals = np.linalg.norm(prob.f0(0.0, y), axis=-1)
        norms = np.linalg.norm(y, axis=-1)
        assert np.all(vals <= 16.0 * (1.0 + norms ** 3) * (1.0 + 1e-12))

    def test_lipschitz_profile_dominates_samples(self):
        # symbolic bound 4 (2k+1) (2R)^(2k) on the ball of radius R
        prob = build_spin_system(SpinSpec())
        radius = 0.8
        assert prob.f0.lipschitz_at(radius) == pytest.approx(12.0 * (2 * radius) ** 2)
        rng = np.random.default_rng(24)
        y1 = rng.standard_normal((4000, 5))
        y1 *= (radius * rng.uniform(0, 1, 4000) / np.linalg.norm(y1, axis=-1))[:, None]
        y2 = rng.standard_normal((4000, 5))
        y2 *= (radius * rng.uniform(0, 1, 4000) / np.linalg.norm(y2, axis=-1))[:, None]
        num = np.linalg.norm(prob.f0(0.0, y1) - prob.f0(0.0, y2), axis=-1)
        den = np.linalg.norm(y1 - y2, axis=-1)
        assert (num / den).max() <= prob.f0.lipschitz_at(radius)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SpinSpec(half_width=0)
        with pytest.raises(ValueError):
            SpinSpec(coefficients=[1.0, 2.0])  # wrong length
        with pytest.raises(ValueError):
            SpinSpec(coefficients=[-1.0, 0.5, 0.5, 0.5, 0.5])


class TestDissipativityCheck:
    def test_identical_pair_zero(self):
        f0 = spin_drift_fn(k=1)

        def sampler(rng):
            y = rng.standard_normal((10, 5))
            return y, y.copy()

        rep = check_dissipativity(lambda y: f0(0.0, y), sampler, trials=10, rng=0)
        assert rep.max_inner_product <= 1e-15

    def test_boundary_matched_pairs_nonpositive(self):
        f0 = spin_drift_fn(k=1)

        def sampler(rng):
            y = rng.standard_normal((1000, 5))
            delta = rng.standard_normal((1000, 5))
            delta[:, 0] = 0.0
            delta[:, -1] = 0.0
            return y, y + delta

        rep = check_dissipativity(lambda y: f0(0.0, y), sampler, trials=100000, rng=1)
        assert rep.trials >= 100000
        assert rep.max_inner_product <= 1e-12
        assert rep.passed

    def test_anti_dissipative_flagged(self):
        rep = check_dissipativity(
            lambda y: +y,
            lambda rng: (rng.standard_normal((100, 3)), rng.standard_normal((100, 3))),
            trials=1000,
            rng=2,
        )
        assert rep.max_inner_product > 0
        assert not rep.passed


class TestGrowthCheck:
    def test_zero_drift_all_ratios_zero(self):
        from mildbsde.spectral import DiagonalOperator

        op = DiagonalOperator([1.0, 2.0])
        drift = DissipativeDrift(
            fn=lambda t, y: np.zeros_like(y), growth_scale=1.0, growth_power=2.0, lipschitz=1.0
        )
        rep = check_growth_and_lipschitz(
            drift, lambda rng: rng.standard_normal((50, 2)),
            trials=200, op=op, alpha=0.0, radius=3.0, rng=3,
        )
        assert rep.worst_growth_ratio == 0.0
        assert rep.worst_lipschitz_ratio == 0.0
        assert rep.growth_ok and rep.lipschitz_ok

    def test_nan_drift_fails_both_ratios(self):
        from mildbsde.spectral import DiagonalOperator

        op = DiagonalOperator([1.0, 2.0])
        drift = DissipativeDrift(
            fn=lambda t, y: np.full_like(y, np.nan), growth_scale=1.0, growth_power=2.0,
            lipschitz=1.0,
        )
        rep = check_growth_and_lipschitz(
            drift, lambda rng: rng.standard_normal((50, 2)),
            trials=200, op=op, alpha=0.0, radius=3.0, rng=3,
        )
        assert math.isnan(rep.worst_growth_ratio) and math.isnan(rep.worst_lipschitz_ratio)
        assert not rep.growth_ok and not rep.lipschitz_ok

    def test_drift_above_1e154_keeps_finite_norms(self):
        # drift entries reach about 1e280: squared, they overflow, so the norms
        # are taken on rows scaled by their largest entry
        with np.errstate(over="ignore"):  # the dissipativity products overflow
            prob = build_preset("spin-chain", odd_power=50, terminal_amp=170)
            rep = sample_growth_and_lipschitz(prob, trials=400, rng=0)
        assert prob.validated
        assert 0.0 < rep.worst_growth_ratio <= 1.0 and 0.0 < rep.worst_lipschitz_ratio <= 1.0
        assert rep.growth_ok and rep.lipschitz_ok


class TestValidateProblem:
    def test_presets_validate(self):
        for name in ("spin-chain", "reaction-diffusion-1d"):
            prob = build_preset(name)
            assert prob.validated

    def test_anti_dissipative_drift_rejected(self):
        prob = build_spin_system(SpinSpec())
        prob.f0 = DissipativeDrift(
            fn=lambda t, y: +y, growth_scale=2.0, growth_power=3.0,
            monotonicity=0.0, lipschitz=2.0,
        )
        prob.validated = False
        with pytest.raises(ValidationError, match="dissipativity"):
            validate_problem(prob, trials=200, seed=1)

    def test_boundary_damped_drift_rejected(self):
        # expands the interior sites and strongly damps the boundary sites: pairs
        # drawn independently almost never expose it, the spin model's pairs that
        # agree on the boundary sites always do
        weights = np.array([-1e6, 1.0, 1.0, 1.0, -1e6])
        prob = build_spin_system(SpinSpec())
        prob.f0 = DissipativeDrift(
            fn=lambda t, y: weights * y, growth_scale=1e6, growth_power=3.0,
            monotonicity=0.0, lipschitz=1e6,
        )
        prob.validated = False
        with pytest.raises(ValidationError, match="dissipativity"):
            validate_problem(prob, trials=200, seed=1)
        prob.pair_sampler = None  # independent pairs from the same ball
        validate_problem(prob, trials=200, seed=1)
        assert prob.validated

    def test_understated_growth_scale_rejected(self):
        prob = build_spin_system(SpinSpec())
        prob.f0 = DissipativeDrift(
            fn=prob.f0.fn, growth_scale=1e-4, growth_power=3.0,
            monotonicity=0.0, lipschitz=prob.f0.lipschitz,
        )
        prob.validated = False
        with pytest.raises(ValidationError, match="growth"):
            validate_problem(prob, trials=400, seed=2)

    def test_nan_driver_fails_the_driver_bound(self):
        # a NaN compares False with any bound; the sampled check must still fail
        prob = build_reaction_diffusion(ReactionDiffusionSpec())
        prob.f1 = replace(prob.f1, fn=lambda t, y, z: np.full_like(y, np.nan))
        prob.validated = False
        with pytest.raises(ValidationError, match="driver-bound"):
            validate_problem(prob, trials=200, seed=1)
        assert not prob.validated

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="preset"):
            build_preset("unknown-model")
