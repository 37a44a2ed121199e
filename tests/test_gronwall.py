"""Gronwall recursion against exact ODE oracles and the closed-form constant."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mildbsde.gronwall import (
    GronwallDivergence,
    GronwallInput,
    _solve_recursion,
    gronwall_bound_iterative,
    gronwall_constant,
    verify_on_process,
)


class TestClosedFormConstant:
    def test_no_feedback(self):
        assert gronwall_constant(GronwallInput(1.0, 0.0, 0.3, 1.0, 2.0)) == 1.0

    def test_reference_value(self):
        # 1 + b e^(bT) T / (1 - alpha) at (1, 1, 0, 1, 1) is 1 + e
        m = gronwall_constant(GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0))
        assert m == pytest.approx(1.0 + math.e, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        b=st.floats(0.1, 3.0),
        t_horizon=st.floats(0.1, 2.0),
        alpha=st.floats(0.0, 0.9),
        bump=st.floats(0.01, 1.0),
    )
    def test_monotone_in_b_horizon_alpha(self, b, t_horizon, alpha, bump):
        base = gronwall_constant(GronwallInput(1.0, b, alpha, 1.0, t_horizon))
        assert gronwall_constant(GronwallInput(1.0, b + bump, alpha, 1.0, t_horizon)) >= base
        assert gronwall_constant(GronwallInput(1.0, b, alpha, 1.0, t_horizon + bump)) >= base
        if alpha + bump * 0.09 < 1.0:
            assert (
                gronwall_constant(GronwallInput(1.0, b, alpha + bump * 0.09, 1.0, t_horizon))
                >= base
            )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GronwallInput(-1.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GronwallInput(1.0, 1.0, 1.0, 1.0, 1.0)  # alpha must be < 1
        with pytest.raises(ValueError):
            GronwallInput(1.0, 1.0, 0.0, 0.0, 1.0)  # beta positive
        with pytest.raises(ValueError):
            GronwallInput(1.0, 1.0, 0.0, 1.0, math.inf)


class TestRecursion:
    def test_no_feedback_returns_envelope_exactly(self):
        params = GronwallInput(2.0, 0.0, 0.4, 1.0, 1.5)
        for t in (0.0, 0.7, 1.3):
            assert gronwall_bound_iterative(params, t) == pytest.approx(
                2.0 * (1.5 - t) ** (-0.4), rel=1e-14
            )

    def test_beta_one_exact_ode_oracle(self):
        # U(t) = a + b int_t^T U ds solves U' = -bU, U(T) = a: here e^(1-t)
        params = GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0)
        for t in np.linspace(0.0, 0.95, 20):
            got = gronwall_bound_iterative(params, float(t))
            assert abs(got - math.exp(1.0 - t)) < 1e-3

    def test_beta_one_dominated_by_closed_form(self):
        for alpha in (0.0, 0.35):
            params = GronwallInput(1.0, 1.0, alpha, 1.0, 1.0)
            m = gronwall_constant(params)
            for t in np.linspace(0.0, 0.99, 25):
                got = gronwall_bound_iterative(params, float(t))
                assert got <= m * (1.0 - t) ** (-alpha) * (1.0 + 1e-9)

    def test_beta_two_cosh_oracle(self):
        # U(t) = 1 + int_t^1 (s - t) U(s) ds solves U'' = U with U(1) = 1,
        # U'(1) = 0, i.e. U(t) = cosh(1 - t)
        params = GronwallInput(1.0, 1.0, 0.0, 2.0, 1.0)
        for t in np.linspace(0.0, 0.9, 10):
            got = gronwall_bound_iterative(params, float(t))
            assert got == pytest.approx(math.cosh(1.0 - t), abs=2e-4)

    def test_monotone_iteration(self):
        # V^0 <= V^1 <= limit pointwise; V^1 built independently with quad
        a, b, alpha, beta, horizon = 1.0, 1.5, 0.2, 0.7, 1.0
        params = GronwallInput(a, b, alpha, beta, horizon)
        for t in (0.0, 0.3, 0.7):
            v0 = a * (horizon - t) ** (-alpha)
            kernel, _ = quad(
                lambda s: (s - t) ** (beta - 1.0) * a * (horizon - s) ** (-alpha),
                t,
                horizon,
                points=[t, horizon],
                limit=400,
            )
            v1 = v0 + b * kernel
            limit = gronwall_bound_iterative(params, t)
            assert v0 <= v1 * (1.0 + 1e-12)
            assert v1 <= limit * (1.0 + 1e-3)

    def test_result_dominates_raw_envelope(self):
        params = GronwallInput(0.5, 2.0, 0.3, 0.5, 1.0)
        for t in (0.0, 0.4, 0.8):
            got = gronwall_bound_iterative(params, t)
            assert got >= 0.5 * (1.0 - t) ** (-0.3) - 1e-12

    def test_scaling_in_a(self):
        p1 = GronwallInput(1.0, 1.0, 0.2, 0.8, 1.0)
        p2 = GronwallInput(2.0, 1.0, 0.2, 0.8, 1.0)
        for t in (0.1, 0.5):
            assert gronwall_bound_iterative(p2, t) == pytest.approx(
                2.0 * gronwall_bound_iterative(p1, t), rel=1e-9
            )
        assert gronwall_constant(p2) == pytest.approx(gronwall_constant(p1), rel=1e-9)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_singular_beta_self_consistency(self):
        # the limit must satisfy the integral equation; recheck it with an
        # independent quadrature engine (QUADPACK, algebraic endpoint weights)
        a, b, alpha, beta = 1.0, 0.8, 0.25, 0.5
        params = GronwallInput(a, b, alpha, beta, 1.0)
        # smooth part w(t) = V(t) (1-t)^alpha of the limit; its endpoint value is a
        t_grid, bounded = _solve_recursion(params, iterations=300)
        assert bounded[-1] == a

        for t in (0.1, 0.5):
            rhs, _ = quad(
                lambda s: np.interp(s, t_grid, bounded),
                t,
                1.0,
                weight="alg",
                wvar=(beta - 1.0, -alpha),
                limit=400,
            )
            expected = a * (1.0 - t) ** (-alpha) + b * rhs
            got = gronwall_bound_iterative(params, t)
            assert got == pytest.approx(expected, rel=5e-3)

    def test_beta_ne_one_constant_dominates(self):
        params = GronwallInput(1.0, 1.0, 0.2, 0.5, 1.0)
        m = gronwall_constant(params)
        assert m >= 1.0
        for t in np.linspace(0.0, 0.99, 21):
            got = gronwall_bound_iterative(params, float(t))
            assert got <= m * (1.0 - t) ** (-0.2) * (1.0 + 1e-6)

    def test_divergence_reported_beyond_cap(self):
        params = GronwallInput(1.0, 40.0, 0.0, 1.0, 1.0)
        with pytest.raises(GronwallDivergence):
            gronwall_bound_iterative(params, 0.1, iterations=4)

    def test_t_out_of_range(self):
        params = GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gronwall_bound_iterative(params, 1.0)


class TestVerifyOnProcess:
    def test_zero_process_holds(self):
        params = GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0)
        times = np.linspace(0.0, 1.0, 51)
        verdict = verify_on_process(times, np.zeros(51), params)
        assert verdict.hypothesis_ok and verdict.holds
        # flat envelope a M - 0 everywhere (alpha = 0)
        assert verdict.worst_margin == pytest.approx(gronwall_constant(params), rel=1e-12)

    def test_exact_solution_holds(self):
        params = GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0)
        times = np.linspace(0.0, 1.0, 201)
        u = np.exp(1.0 - times)
        verdict = verify_on_process(times, u, params, hypothesis_rtol=1e-3)
        assert verdict.hypothesis_ok and verdict.holds

    def test_multi_path_reduced_to_envelope(self):
        params = GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0)
        times = np.linspace(0.0, 1.0, 41)
        vals = np.stack([0.3 * np.ones(41), 0.6 * np.ones(41)], axis=1)
        verdict = verify_on_process(times, vals, params)
        assert verdict.hypothesis_ok and verdict.holds

    def test_injected_spike_flags_hypothesis(self):
        params = GronwallInput(1.0, 1.0, 0.0, 1.0, 1.0)
        times = np.linspace(0.0, 1.0, 41)
        u = np.ones(41)
        u[5] = 50.0  # exceeds a + b * integral by far
        verdict = verify_on_process(times, u, params)
        assert not verdict.hypothesis_ok
        assert not verdict.holds
        assert math.isnan(verdict.worst_margin)
