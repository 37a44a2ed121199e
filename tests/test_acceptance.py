"""Acceptance criteria, one test per numbered criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them all).
Criteria 1-2 use the martingale-representation and Gaussian-moment oracles at
M = 1e5; criteria 3-5 run the two model presets at their default budgets.
"""
import math
import time

import numpy as np
import pytest

from mildbsde.cli import main as cli_main
from mildbsde.gronwall import GronwallInput, gronwall_bound_iterative, verify_on_process
from mildbsde.models import build_preset, check_dissipativity, spin_drift_fn
from mildbsde.solver import (
    BsdeProblem,
    SolverConfig,
    general_solve,
)
from mildbsde.spectral import (
    DiagonalOperator,
    estimate_interp_constant,
    h_alpha_norm_batch,
    interpolation_norm,
    semigroup_apply,
)
from mildbsde.wiener import RegressionBasis, TimeGrid, sample_ensemble


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")


def linear_problem(op_dim_terminal):
    op = DiagonalOperator([0.0])
    prob = BsdeProblem(
        operator=op, horizon=1.0, alpha=0.0, terminal=op_dim_terminal,
        terminal_bound=math.inf, noise_dim=1, label="martingale-oracle",
    )
    prob.validated = True  # zero drift, nothing to sample
    return prob


@pytest.fixture(scope="module")
def oracle_ensemble():
    grid = TimeGrid.uniform(1.0, 100)
    return sample_ensemble(grid, 1, 100000, seed=2718)


@pytest.fixture(scope="module")
def linear_run(oracle_ensemble):
    prob = linear_problem(lambda e: e.paths()[:, -1, :1])
    basis = RegressionBasis(degree=2, ridge=1e-8)
    start = time.perf_counter()
    sol, rep = general_solve(prob, oracle_ensemble, basis, SolverConfig())
    elapsed = time.perf_counter() - start
    return sol, rep, elapsed


@pytest.fixture(scope="module")
def spin_run():
    prob = build_preset("spin-chain")
    grid = TimeGrid.uniform(prob.horizon, 100)
    ens = sample_ensemble(grid, prob.noise_dim, 10000, seed=424242)
    basis = RegressionBasis(degree=2, ridge=1e-8)
    start = time.perf_counter()
    sol, rep = general_solve(prob, ens, basis, SolverConfig())
    elapsed = time.perf_counter() - start
    return prob, sol, rep, elapsed


@pytest.fixture(scope="module")
def rd_run():
    prob = build_preset("reaction-diffusion-1d")
    grid = TimeGrid.uniform(prob.horizon, 80)
    ens = sample_ensemble(grid, prob.noise_dim, 4000, seed=515151)
    basis = RegressionBasis(degree=2, n_coords=3, ridge=1e-8)
    sol, rep = general_solve(prob, ens, basis, SolverConfig())
    return prob, sol, rep


def relative_l2_error(grid, y_nodes, truth_nodes):
    deltas = grid.deltas
    num = np.sum(np.mean((y_nodes[:-1] - truth_nodes[:-1]) ** 2, axis=1) * deltas)
    den = np.sum(np.mean(truth_nodes[:-1] ** 2, axis=1) * deltas)
    return math.sqrt(num / den)


class TestCriterion1LinearOracle:
    def test_martingale_representation(self, oracle_ensemble, linear_run):
        sol, rep, elapsed = linear_run
        w = oracle_ensemble.paths()[:, :, 0].T  # (L+1, M)
        rel = relative_l2_error(oracle_ensemble.grid, sol.y[:, :, 0], w)
        z_node_means = sol.z[:, :, 0, 0].mean(axis=1)
        z_ok = np.all(np.abs(z_node_means - 1.0) < 0.05)
        ok = rel < 0.02 and z_ok and elapsed < 60.0
        report(1, ok, f"rel L2 err {rel:.4%}, Z means in "
                      f"[{z_node_means.min():.4f}, {z_node_means.max():.4f}], "
                      f"runtime {elapsed:.1f}s")
        assert rel < 0.02
        assert z_ok
        assert elapsed < 60.0


class TestCriterion2QuadraticOracle:
    def test_second_moment_representation(self, oracle_ensemble):
        prob = linear_problem(lambda e: e.paths()[:, -1, :1] ** 2)
        basis = RegressionBasis(degree=2, ridge=1e-8)
        sol, rep = general_solve(prob, oracle_ensemble, basis, SolverConfig())
        grid = oracle_ensemble.grid
        w = oracle_ensemble.paths()[:, :, 0].T
        truth = w ** 2 + (1.0 - grid.times)[:, None]
        rel = relative_l2_error(grid, sol.y[:, :, 0], truth)
        slopes = []
        for l in range(10, 100, 10):
            z_l = sol.z[l, :, 0, 0]
            w_l = w[l]
            slopes.append(float(np.cov(z_l, w_l)[0, 1] / np.var(w_l)))
        slope_ok = all(abs(s - 2.0) < 0.1 for s in slopes)
        ok = rel < 0.03 and slope_ok
        report(2, ok, f"rel L2 err {rel:.4%}, Z slopes in "
                      f"[{min(slopes):.4f}, {max(slopes):.4f}]")
        assert rel < 0.03
        assert slope_ok


class TestCriterion3SpinContraction:
    def test_picard_factors(self, spin_run):
        prob, sol, rep, elapsed = spin_run
        factors = rep.picard_factors
        ok = bool(factors) and all(f <= 0.6 for f in factors) and elapsed < 300.0
        report(3, ok, f"{len(rep.windows)} windows, max factor "
                      f"{max(factors):.4f}, runtime {elapsed:.1f}s")
        assert factors, "no contraction factors were recorded"
        assert all(f <= 0.6 for f in factors)
        assert elapsed < 300.0
        # pasting schedule arithmetic: 1 + ceil((T - delta_1)/delta_2) windows
        if not any(w.halvings for w in rep.windows):
            assert len(rep.windows) == rep.window_count_formula


class TestCriterion4OuterFixedPoint:
    def test_weighted_contraction(self, rd_run):
        prob, sol, rep = rd_run
        outer = rep.outer
        sq = outer["squared_factors"]
        ok = (
            outer["beta"] == pytest.approx(2.0)
            and outer["iterations"] <= 10
            and all(f <= 0.6 for f in sq)
        )
        report(4, ok, f"beta {outer['beta']:.3f}, {outer['iterations']} outer iterations, "
                      f"squared factors {[f'{f:.3f}' for f in sq]}")
        assert outer["beta"] == pytest.approx(2.0)  # lipschitz 0.5
        assert outer["iterations"] <= 10
        assert all(f <= 0.6 for f in sq)


class TestCriterion5AprioriBound:
    def test_spin(self, spin_run):
        _, _, rep, _ = spin_run
        ok = rep.max_y_h <= 1.1 * rep.c1_bound
        report(5, ok, f"spin max |Y|_H {rep.max_y_h:.4f} vs 1.1 C1 {1.1 * rep.c1_bound:.4f}")
        assert ok

    def test_reaction_diffusion(self, rd_run):
        _, _, rep = rd_run
        ok = rep.max_y_h <= 1.1 * rep.c1_bound
        report(5, ok, f"rd max |Y|_H {rep.max_y_h:.4f} vs 1.1 C1 {1.1 * rep.c1_bound:.4f}")
        assert ok


class TestCriterion6Gronwall:
    def test_recursion_and_bound(self):
        params = GronwallInput(a=1.0, b=1.0, alpha=0.0, beta=1.0, horizon=1.0)
        ts = np.linspace(0.0, 0.95, 20)
        worst = 0.0
        bound_ok = True
        for t in ts:
            got = gronwall_bound_iterative(params, float(t))
            worst = max(worst, abs(got - math.exp(1.0 - t)))
            bound_ok = bound_ok and got <= (1.0 + math.e) + 1e-9
        raw = GronwallInput(a=1.0, b=0.0, alpha=0.0, beta=1.0, horizon=1.0)
        raw_exact = all(
            gronwall_bound_iterative(raw, float(t)) == 1.0 for t in (0.0, 0.5, 0.9)
        )
        ok = worst < 1e-3 and bound_ok and raw_exact
        report(6, ok, f"max |recursion - exp(1-t)| = {worst:.2e}, "
                      f"bound 1+e respected: {bound_ok}, b=0 exact: {raw_exact}")
        assert worst < 1e-3
        assert bound_ok
        assert raw_exact


class TestCriterion7Dissipativity:
    def test_boundary_matched_pairs(self):
        f0 = spin_drift_fn(k=1)

        def sampler(rng):
            y = rng.standard_normal((2000, 5))
            delta = rng.standard_normal((2000, 5))
            delta[:, 0] = 0.0
            delta[:, -1] = 0.0
            return y, y + delta

        rep = check_dissipativity(lambda y: f0(0.0, y), sampler, trials=100000, rng=7)
        control = check_dissipativity(
            lambda y: +y,
            lambda rng: (rng.standard_normal((200, 5)), rng.standard_normal((200, 5))),
            trials=1000, rng=8,
        )
        ok = rep.max_inner_product <= 1e-12 and not control.passed
        report(7, ok, f"max inner product {rep.max_inner_product:.2e} over "
                      f"{rep.trials} pairs; anti-dissipative control flagged: "
                      f"{not control.passed}")
        assert rep.max_inner_product <= 1e-12
        assert not control.passed


class TestCriterion8SemigroupInterpolation:
    def test_invariants(self):
        rng = np.random.default_rng(88)
        op = DiagonalOperator(np.concatenate([[0.0], rng.uniform(0.2, 30.0, 7)]))
        # semigroup law at absolute 1e-12
        worst_law = 0.0
        for _ in range(200):
            t, s = rng.uniform(0, 2, size=2)
            x = rng.standard_normal(8)
            lhs = semigroup_apply(op, t + s, x)
            rhs = semigroup_apply(op, t, semigroup_apply(op, s, x))
            worst_law = max(worst_law, float(np.abs(lhs - rhs).max()))
        # eigenvector seminorms against the analytic maximizer
        alpha = 0.4
        worst_semi = 0.0
        for n, a in enumerate(op.eigenvalues):
            if a == 0.0:
                continue
            e = np.zeros(8)
            e[n] = 1.0
            t_star = (1 - alpha) / a
            exact = (
                t_star ** (1 - alpha) * a * math.exp(-a * t_star)
                if t_star <= 1.0
                else a * math.exp(-a)
            )
            got = interpolation_norm(op, alpha, e).seminorm
            worst_semi = max(worst_semi, abs(got - exact) / exact)
        # interpolation inequality on fresh samples with the reported constant
        c_emp = estimate_interp_constant(op, 0.3, 0.6, trials=4096, rng=89)
        xs = rng.standard_normal((10000, 8))
        lhs = h_alpha_norm_batch(op, 0.3, xs)
        rhs = h_alpha_norm_batch(op, 0.6, xs) ** 0.5 * np.linalg.norm(xs, axis=-1) ** 0.5
        worst_ratio = float((lhs / rhs).max())
        ok = worst_law <= 1e-12 and worst_semi <= 1e-4 and worst_ratio <= 1.1 * c_emp
        report(8, ok, f"semigroup law {worst_law:.2e}, seminorm rel err {worst_semi:.2e}, "
                      f"inequality ratio {worst_ratio:.4f} vs constant {c_emp:.4f}")
        assert worst_law <= 1e-12
        assert worst_semi <= 1e-4
        assert worst_ratio <= 1.1 * c_emp


class TestCriterion9ResidualConvergence:
    def test_monte_carlo_rate(self):
        grid = TimeGrid.uniform(1.0, 100)
        basis = RegressionBasis(degree=2, ridge=1e-8)
        residuals = {}
        for m in (1000, 10000):
            ens = sample_ensemble(grid, 1, m, seed=3141)
            prob = linear_problem(lambda e: e.paths()[:, -1, :1])
            sol, rep = general_solve(prob, ens, basis, SolverConfig())
            residuals[m] = rep.residual_value
        ratio = residuals[1000] / residuals[10000]
        ok = ratio >= 2.5
        report(9, ok, f"residuals {residuals[1000]:.4e} -> {residuals[10000]:.4e}, "
                      f"ratio {ratio:.2f} (sqrt(10) expected)")
        assert ratio >= 2.5


class TestCriterion10Determinism:
    def test_byte_identical_csv(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg.write_text(
            "\n".join(
                [
                    "[experiment]",
                    "preset = spin-chain",
                    "seed = 9090",
                    f"out = {out_a}",
                    "",
                    "[discretization]",
                    "paths = 400",
                    "steps = 40",
                ]
            )
        )
        assert cli_main(["solve", "--config", str(cfg)]) == 0
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out_b)]) == 0
        same = (out_a / "solve.csv").read_bytes() == (out_b / "solve.csv").read_bytes()
        report(10, same, "identical config+seed reproduced solve.csv byte-for-byte")
        assert same


class TestSupplementaryInvariants:
    """Solver-output properties tied to the quantitative bounds."""

    def test_blowup_envelope_on_reaction_diffusion(self, rd_run):
        # fitted first-window constant, tested as an envelope everywhere
        # (ensemble max as the essential-sup proxy, 10% Monte Carlo slack)
        _, _, rep = rd_run
        assert rep.theta == pytest.approx(0.75)
        assert math.isfinite(rep.c2_fit) and rep.c2_fit > 0
        assert rep.blowup_margin <= 1.1

    def test_gronwall_applies_to_solved_spin_model(self, spin_run):
        prob, sol, rep, _ = spin_run
        u = np.max(np.sum(sol.y ** 2, axis=-1), axis=1)  # pathwise max of |Y|^2
        a_const = rep.c1_bound ** 2
        params = GronwallInput(a=a_const, b=2.0, alpha=0.0, beta=1.0,
                               horizon=prob.horizon)
        verdict = verify_on_process(sol.grid.times, u, params)
        assert verdict.hypothesis_ok
        assert verdict.holds

    def test_terminal_bit_exact_on_presets(self, spin_run):
        prob, sol, rep, _ = spin_run
        grid = sol.grid
        ens = sample_ensemble(grid, prob.noise_dim, 10000, seed=424242)
        np.testing.assert_array_equal(sol.y[-1], prob.terminal(ens))
