"""Command-line harness: artifacts, determinism, exit codes."""
import configparser
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mildbsde.config
from mildbsde.cli import main, run_gronwall_check, run_solve, run_validation
from mildbsde.config import _SOLVER_KEYS, ExperimentConfig, load_config
from mildbsde.models import ValidationError
from mildbsde.solver import DissipativeDrift, SolverConfig, general_solve

REPO = Path(__file__).resolve().parents[1]


def write_spin_config(path: Path, out: Path, paths=400, steps=40, seed=321) -> Path:
    cfg = path / "spin.ini"
    cfg.write_text(
        "\n".join(
            [
                "[experiment]",
                "preset = spin-chain",
                f"seed = {seed}",
                f"out = {out}",
                "",
                "[discretization]",
                f"paths = {paths}",
                f"steps = {steps}",
                "",
                "[validation]",
                "trials = 400",
            ]
        )
    )
    return cfg


def write_reaction_diffusion_config(path: Path, out: Path, paths=400, steps=20, seed=654) -> Path:
    cfg = path / "rd.ini"
    cfg.write_text(
        "\n".join(
            [
                "[experiment]",
                "preset = reaction-diffusion-1d",
                f"seed = {seed}",
                f"out = {out}",
                "",
                "[discretization]",
                f"paths = {paths}",
                f"steps = {steps}",
                "",
                "[validation]",
                "trials = 400",
            ]
        )
    )
    return cfg


# (section, key) -> (the loaded value, integer, least): a config that loads
# holds a finite number of at least ``least`` there, an integer if ``integer``
_NUMBER_RULES = {
    ("experiment", "seed"): (lambda c: c.seed, True, 0),
    ("discretization", "paths"): (lambda c: c.paths, True, 1),
    ("discretization", "steps"): (lambda c: c.steps, True, 1),
    ("discretization", "basis_degree"): (lambda c: c.basis_degree, True, 0),
    ("discretization", "basis_coords"): (lambda c: c.basis_coords, True, 1),
    ("discretization", "ridge"): (lambda c: c.ridge, False, 0),
    ("solver", "max_iter"): (lambda c: c.solver.max_iter, True, 1),
    ("solver", "max_outer"): (lambda c: c.solver.max_outer, True, 1),
    ("solver", "safety_margin"): (lambda c: c.solver.safety_margin, False, 1),
    ("validation", "trials"): (lambda c: c.validation_trials, True, 1),
}

_NUMBER_TEXTS = st.one_of(
    st.sampled_from(
        ["0", "-0.0", "-1", "0.5", "1", "2.5", "nan", "-nan", "inf", "-inf", "1e300", "1e999",
         str(10 ** 30)]
    ),
    st.integers(-(10 ** 30), 10 ** 30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


class TestConfig:
    @settings(max_examples=300, deadline=None)
    @given(section_key=st.sampled_from(sorted(_NUMBER_RULES)), text=_NUMBER_TEXTS)
    @example(section_key=("solver", "safety_margin"), text="0")
    def test_numbers_load_only_within_their_rule(self, tmp_path_factory, section_key, text):
        # every numeric key either loads a value that keeps its rule or is
        # rejected by name; no other exception escapes load_config
        section, key = section_key
        values = {"experiment": {"preset": "spin-chain", "seed": "5"}}
        values.setdefault(section, {})[key] = text
        path = tmp_path_factory.getbasetemp() / "numbers.ini"
        path.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                for name, items in values.items()
            )
        )
        loaded, integer, least = _NUMBER_RULES[section_key]
        try:
            cfg = load_config(path)
        except ValidationError as err:
            assert f"config: [{section}] {key} must be " in str(err)
            return
        value = loaded(cfg)
        assert not isinstance(value, bool)
        assert isinstance(value, int if integer else (int, float))
        assert least <= value < math.inf

    def test_load_shipped_configs(self):
        for name in ("spin-chain", "reaction-diffusion-1d"):
            cfg = load_config(REPO / "configs" / f"{name}.ini")
            assert cfg.preset == name
            assert cfg.seed > 0
            problem = cfg.make_problem()
            assert problem.validated

    def test_missing_seed_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\npreset = spin-chain\n")
        with pytest.raises(ValidationError):
            load_config(bad)

    def test_unknown_solver_key_rejected(self, tmp_path):
        # a misspelled key must not be ignored silently
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text(
            "[experiment]\npreset = spin-chain\nseed = 5\n\n[solver]\nmax_iters = 1\n"
        )
        with pytest.raises(ValidationError, match="config: unknown key.*max_iters"):
            load_config(cfg_file)

    @pytest.mark.parametrize(
        "key", ["tol", "tol_outer", "min_iter", "window_override", "auto_refine"]
    )
    def test_removed_solver_key_rejected(self, tmp_path, capsys, key):
        # the Picard and outer tolerances follow from the data, every window
        # takes at least two Picard steps, the operator constants alone set
        # each window length and a window below one step always refines the
        # grid; no key sets any of these
        value = {"window_override": "0.1", "auto_refine": "false"}.get(key, "1e-9")
        cfg = write_spin_config(tmp_path, tmp_path / "x")
        cfg.write_text(cfg.read_text() + f"\n[solver]\n{key} = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"config: unknown key(s) in [solver]: {key}" in capsys.readouterr().err

    def test_solver_schema_names_every_key(self):
        # the documented [solver] block lists exactly the keys load_config accepts
        block = mildbsde.config.__doc__.split("[solver]")[1].split("\n\n")[0]
        assert sorted(re.findall(r"^\s*(\w+) =", block, re.M)) == sorted(_SOLVER_KEYS)

    def test_every_solver_field_has_one_key(self):
        # no SolverConfig switch is reachable only from the library
        assert sorted(_SOLVER_KEYS.values()) == sorted(f.name for f in fields(SolverConfig))

    def test_empty_suite_parsed(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text(
            "[experiment]\npreset = spin-chain\nseed = 5\n\n[validation]\nsuite =\n"
        )
        cfg = load_config(cfg_file)
        assert cfg.validation_suite == ()


class TestSolveCommand:
    def test_artifacts_and_row_count(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_spin_config(tmp_path, out)
        assert main(["solve", "--config", str(cfg)]) == 0
        csv = (out / "solve.csv").read_text().splitlines()
        assert csv[0] == "# schema=mildbsde-solve-csv-v1"
        assert csv[1].split(",")[0] == "t"
        report = json.loads((out / "report.json").read_text())
        n_steps = report["report"]["n_steps"]
        assert len(csv) == 2 + n_steps + 1  # schema line + header + one row per node
        arrays = np.load(out / "solution.npz")
        assert arrays["y"].shape[0] == n_steps + 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 321

    @pytest.mark.parametrize(
        "write_config", [write_spin_config, write_reaction_diffusion_config],
        ids=["spin-chain", "reaction-diffusion"],
    )
    def test_streamed_solution_npz_matches_library_solve(self, tmp_path, write_config):
        # Z reaches solution.npz node by node; the arrays must be those of a
        # library solve that keeps Z, cast to float32
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, out)
        assert main(["solve", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        problem = cfg.make_problem()
        sol, _ = general_solve(problem, cfg.make_ensemble(problem), cfg.make_basis(), cfg.solver)
        manifest = json.loads((out / "manifest.json").read_text())
        expected = {
            "times": sol.grid.times,
            "y": sol.y.astype(np.float32),
            "z": sol.z.astype(np.float32),
        }
        with np.load(out / "solution.npz") as arrays:
            assert sorted(arrays.files) == sorted(expected)
            for name, expect in expected.items():
                got = arrays[name]
                assert got.dtype == expect.dtype
                np.testing.assert_array_equal(got, expect)
            assert list(arrays["y"].shape) == manifest["shapes"]["y"]
            assert list(arrays["z"].shape) == manifest["shapes"]["z"]

    def test_solve_never_holds_z_in_full(self, tmp_path):
        # the config refines to 200 steps, so Z is 200 x 2000 x 5 x 5 float64:
        # 76.3 MiB, which the traced peak of a whole solve and write stays below
        cfg = load_config(write_spin_config(tmp_path, tmp_path / "mem", paths=2000, steps=100))
        tracemalloc.start()
        try:
            run_solve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        z_shape = json.loads((tmp_path / "mem" / "manifest.json").read_text())["shapes"]["z"]
        assert z_shape == [200, 2000, 5, 5]
        assert peak < math.prod(z_shape) * np.dtype(np.float64).itemsize

    def test_solve_never_holds_y_in_full(self, tmp_path):
        # refined to 200 steps, Y is 201 x 2000 x 5 float64 (15.3 MiB); it
        # leaves the solve node by node, so a whole solve and write stays
        # below 2.6 of it, of which the ensemble's increments and paths take 2
        cfg = load_config(write_spin_config(tmp_path, tmp_path / "mem", paths=2000, steps=100))
        tracemalloc.start()
        try:
            run_solve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        y_shape = json.loads((tmp_path / "mem" / "manifest.json").read_text())["shapes"]["y"]
        assert y_shape == [201, 2000, 5]
        assert peak < 2.6 * math.prod(y_shape) * np.dtype(np.float64).itemsize

    def test_coupled_solve_holds_one_z(self, tmp_path):
        # the outer fixed point keeps one Z of 40 x 2000 x 6 x 6 float64 (22.0 MiB)
        # and overwrites it each outer step, so a whole solve and write stays
        # below three of them
        cfg = load_config(
            write_reaction_diffusion_config(tmp_path, tmp_path / "mem", paths=2000, steps=40)
        )
        cfg.basis_coords = 3
        tracemalloc.start()
        try:
            run_solve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        z_shape = json.loads((tmp_path / "mem" / "manifest.json").read_text())["shapes"]["z"]
        assert z_shape == [40, 2000, 6, 6]
        report = json.loads((tmp_path / "mem" / "report.json").read_text())["report"]
        assert report["outer"]["iterations"] > 1
        assert peak < 3 * math.prod(z_shape) * np.dtype(np.float64).itemsize

    def test_byte_identical_rerun(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_spin_config(tmp_path, out_a)
        assert main(["solve", "--config", str(cfg_a)]) == 0
        assert main(["solve", "--config", str(cfg_a), "--out", str(out_b)]) == 0
        assert (out_a / "solve.csv").read_bytes() == (out_b / "solve.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_spin_config(tmp_path, out_a)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert main(["solve", "--config", str(cfg), "--seed", "999", "--out", str(out_b)]) == 0
        assert (out_a / "solve.csv").read_bytes() != (out_b / "solve.csv").read_bytes()

    def test_divergence_exits_3(self, tmp_path, capsys):
        # an iteration budget too small to ever satisfy the stopping rule
        cfg = tmp_path / "tight.ini"
        cfg.write_text(
            "\n".join(
                [
                    "[experiment]",
                    "preset = spin-chain",
                    "seed = 13",
                    f"out = {tmp_path / 'x'}",
                    "",
                    "[discretization]",
                    "paths = 200",
                    "steps = 30",
                    "",
                    "[solver]",
                    "max_iter = 1",
                ]
            )
        )
        assert main(["solve", "--config", str(cfg)]) == 3
        assert "solver failure: no convergence within 1 iterations" in capsys.readouterr().err

    def test_outer_divergence_exits_3(self, tmp_path, capsys):
        # one outer step can never meet the outer stopping rule of a coupled driver
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x")
        cfg.write_text(cfg.read_text() + "\n[solver]\nmax_outer = 1\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: outer iteration did not converge within 1 steps" in err

    def test_refinement_beyond_memory_exits_3(self, tmp_path, capsys):
        # odd_power = 50 at a terminal amplitude of 170 asks for a window some
        # 6e304 times shorter than a step; no memory holds those paths
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20, seed=13)
        cfg.write_text(cfg.read_text() + "\n[model]\nodd_power = 50\nterminal_amp = 170\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"solver failure: a grid refined to \S+ steps .* physical memory", err)

    def test_lipschitz_overflow_exits_3(self, tmp_path, capsys):
        # spin-chain's Lipschitz profile overflows a float at the inflated radius
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20)
        cfg.write_text(cfg.read_text() + "\n[solver]\nsafety_margin = 1e300\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        assert "solver failure: window length collapsed" in capsys.readouterr().err

    def test_window_collapse_exits_3(self, tmp_path, capsys):
        # a huge safety margin inflates the ball radius until the cubic drift's
        # Lipschitz constant overflows: no window keeps the drift in its ball
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x", paths=200)
        cfg.write_text(cfg.read_text() + "\n[solver]\nsafety_margin = 1e100\n")
        with np.errstate(over="ignore", invalid="ignore"):  # the Lipschitz fit at 1e100
            assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: window length collapsed" in err

    @pytest.mark.parametrize(
        "preset, key, value",
        [
            ("reaction-diffusion-1d", "terminal_base", "1e120"),  # the drift overflows to NaN
            ("spin-chain", "terminal_amp", "1e160"),  # the squared validation radius overflows
        ],
    )
    def test_huge_terminal_fails_dissipativity(self, tmp_path, capsys, preset, key, value):
        write = write_spin_config if preset == "spin-chain" else write_reaction_diffusion_config
        cfg = write(tmp_path, tmp_path / "x", paths=200, steps=20)
        cfg.write_text(cfg.read_text() + f"\n[model]\n{key} = {value}\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["solve", "--config", str(cfg)]) == 2
        assert "validation failure: dissipativity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, key, value",
        [
            ("reaction-diffusion-1d", "terminal_base", "inf"),
            ("reaction-diffusion-1d", "terminal_noise", "-inf"),
            ("reaction-diffusion-1d", "terminal_base", "nan"),
            ("spin-chain", "terminal_amp", "inf"),
        ],
    )
    def test_non_finite_terminal_exits_2(self, tmp_path, capsys, preset, key, value):
        # an infinite amplitude would give NaN terminal values (inf * 0)
        write = write_spin_config if preset == "spin-chain" else write_reaction_diffusion_config
        cfg = write(tmp_path, tmp_path / "x", paths=200)
        cfg.write_text(cfg.read_text() + f"\n[model]\n{key} = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"validation failure: terminal: {key} must be finite, got {value}" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_driver_strength_exits_2(self, tmp_path, capsys, value):
        # a non-finite K1 gives a non-finite driver bound; it must not validate
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x", paths=200)
        cfg.write_text(cfg.read_text() + f"\n[model]\ndriver_strength = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        message = f"driver-bound: driver_strength must be finite, got {value}"
        assert f"validation failure: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["spin-chain", "reaction-diffusion-1d"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_horizon_exits_2(self, tmp_path, capsys, preset, value):
        write = write_spin_config if preset == "spin-chain" else write_reaction_diffusion_config
        cfg = write(tmp_path, tmp_path / "x", paths=200)
        cfg.write_text(cfg.read_text() + f"\n[model]\nhorizon = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"validation failure: horizon must be positive and finite, got {value}" in err

    def test_nan_drift_exits_3_naming_the_node(self, tmp_path, capsys, monkeypatch):
        # the preset's drift turns NaN at t = 1/2, after validation has passed
        build = ExperimentConfig.make_problem

        def poisoned_problem(cfg):
            problem = build(cfg)
            fn = problem.f0.fn

            def nan_at_half(t, y):
                out = fn(t, y)
                return np.full_like(out, np.nan) if t == 0.5 else out

            problem.f0.fn = nan_at_half
            return problem

        monkeypatch.setattr(ExperimentConfig, "make_problem", poisoned_problem)
        cfg = write_spin_config(tmp_path, tmp_path / "nan", paths=200, steps=30)
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        match = re.search(r"f0 returned a non-finite value at node (\d+) \(t = 0.5\)", err)
        # t = 1/2 is the middle node of the 30-step grid or of its refinement
        assert match and 2 * int(match.group(1)) % 30 == 0

    def test_invalid_model_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "\n".join(
                [
                    "[experiment]",
                    "preset = reaction-diffusion-1d",
                    "seed = 7",
                    f"out = {tmp_path / 'x'}",
                    "",
                    "[model]",
                    "alpha = 0.4",  # growth power 3 gives 3 * 0.4 >= 1
                ]
            )
        )
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "growth-exponent" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("safety_margin", 0,
             "[solver] safety_margin must be a finite number of at least 1, got 0"),
            ("safety_margin", -1,
             "[solver] safety_margin must be a finite number of at least 1, got -1"),
            ("safety_margin", 0.5,
             "[solver] safety_margin must be a finite number of at least 1, got 0.5"),
            ("safety_margin", math.nan,
             "[solver] safety_margin must be a finite number of at least 1, got nan"),
            ("ridge", math.nan,
             "[discretization] ridge must be a finite number of at least 0, got nan"),
            ("ridge", math.inf,
             "[discretization] ridge must be a finite number of at least 0, got inf"),
            ("ridge", -1e-8,
             "[discretization] ridge must be a finite number of at least 0, got -1e-08"),
            ("paths", 0, "[discretization] paths must be a positive integer, got 0"),
            ("steps", 0, "[discretization] steps must be a positive integer, got 0"),
            ("max_iter", 0, "[solver] max_iter must be a positive integer, got 0"),
            ("max_iter", 2.5, "[solver] max_iter must be a positive integer, got 2.5"),
            ("max_outer", 0, "[solver] max_outer must be a positive integer, got 0"),
            ("basis_degree", 2.5,
             "[discretization] basis_degree must be a nonnegative integer, got 2.5"),
            ("basis_degree", -1,
             "[discretization] basis_degree must be a nonnegative integer, got -1"),
            ("basis_coords", 0, "[discretization] basis_coords must be a positive integer, got 0"),
            ("basis_coords", -1,
             "[discretization] basis_coords must be a positive integer, got -1"),
        ],
    )
    def test_nonpositive_numeric_value_exits_2(self, tmp_path, capsys, key, value, message):
        # rejected when the config is read, before any path is drawn
        cfg = write_spin_config(tmp_path, tmp_path / "x")
        ini = configparser.ConfigParser()
        ini.read(cfg)
        ini.read_dict({"solver" if key in _SOLVER_KEYS else "discretization": {key: value}})
        with cfg.open("w") as f:
            ini.write(f)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_config(cfg)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"validation failure: config: {message}" in capsys.readouterr().err

    def test_unknown_model_key_exits_2(self, tmp_path, capsys):
        cfg = write_spin_config(tmp_path, tmp_path / "x")
        cfg.write_text(cfg.read_text() + "\n[model]\nhalf_widht = 3\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config: unknown [model] key(s) for spin-chain: half_widht" in capsys.readouterr().err


class TestValidateCommand:
    def test_default_suites_pass(self, tmp_path):
        out = tmp_path / "v"
        cfg = write_spin_config(tmp_path, out)
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_empty_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        cfg = write_spin_config(tmp_path, out)
        assert main(["validate", "--config", str(cfg), "--suite", ""]) == 0

    def test_preset_flag_supplies_missing_preset(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text("[experiment]\nseed = 5\n")
        assert main(["validate", "--config", str(cfg_file), "--preset", "spin-chain"]) == 0
        assert main(["validate", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("value", ["0", "-5", "2.5", "nan", "inf"])
    def test_bad_trials_exit_2(self, tmp_path, capsys, value):
        cfg = write_spin_config(tmp_path, tmp_path / "v")
        cfg.write_text(cfg.read_text().replace("trials = 400", f"trials = {value}"))
        assert main(["validate", "--config", str(cfg)]) == 2
        message = f"[validation] trials must be a positive integer, got {value}"
        assert f"validation failure: config: {message}" in capsys.readouterr().err

    def test_injected_anti_dissipative_fails(self, tmp_path):
        cfg = ExperimentConfig(preset="spin-chain", seed=11, validation_trials=500)
        cfg.validation_suite = ("dissipativity",)
        bad = DissipativeDrift(
            fn=lambda t, y: +y, growth_scale=2.0, growth_power=3.0,
            monotonicity=0.0, lipschitz=2.0,
        )
        with pytest.raises(ValidationError, match="dissipativity"):
            run_validation(cfg, f0_override=bad)


class TestConvergenceStudy:
    def test_single_entry_ladders(self, tmp_path):
        out = tmp_path / "study"
        cfg = write_spin_config(tmp_path, out, paths=300, steps=30)
        code = main(
            ["convergence-study", "--config", str(cfg), "--m-ladder", "300",
             "--l-ladder", "30"]
        )
        assert code == 0
        rows = (out / "study.csv").read_text().splitlines()
        assert rows[0] == "# schema=mildbsde-study-csv-v1"
        assert len(rows) == 3  # schema + header + one row

    def test_m_ladder_residual_within_noise(self, tmp_path):
        out = tmp_path / "study"
        cfg = write_spin_config(tmp_path, out, paths=300, steps=100)
        code = main(
            ["convergence-study", "--config", str(cfg), "--m-ladder", "300,1200"]
        )
        assert code == 0
        rows = (out / "study.csv").read_text().splitlines()[2:]
        residuals = [float(r.split(",")[2]) for r in rows]
        # more paths must not grow the residual beyond 2x Monte Carlo noise
        assert residuals[1] <= 2.0 * residuals[0]


class TestGronwallCommand:
    def test_table_rows_and_bound(self, tmp_path):
        rows = run_gronwall_check(1.0, 1.0, 0.0, 1.0, 1.0, points=11,
                                  out_path=tmp_path / "g.csv")
        assert len(rows) == 11
        for t, rec, bound in rows:
            assert rec <= bound * (1.0 + 1e-9)
        text = (tmp_path / "g.csv").read_text().splitlines()
        assert text[0] == "# schema=mildbsde-gronwall-csv-v1"

    def test_cli_exit_code(self):
        assert main(
            ["gronwall-check", "--a", "1", "--b", "0", "--alpha", "0",
             "--beta", "1", "--horizon", "1"]
        ) == 0
