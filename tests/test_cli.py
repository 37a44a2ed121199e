"""Command-line harness: artifacts, determinism, exit codes."""
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mildbsde.cli
import mildbsde.config
import mildbsde.models
import mildbsde.solver
import mildbsde.spectral
import mildbsde.wiener
from mildbsde import load_solution
from mildbsde.cli import main, run_gronwall_check, run_solve, run_validation
from mildbsde.config import ExperimentConfig, load_config
from mildbsde.models import ValidationError
from mildbsde.solver import BoundedDriver, BsdeProblem, DissipativeDrift, SolverError
from mildbsde.spectral import DiagonalOperator
from oracles import kept_solve

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


def record_draws(monkeypatch) -> list:
    """The step counts of the ensembles a solve draws, through either module."""
    drawn, sample = [], mildbsde.wiener.sample_ensemble

    def recorded(grid, *args):
        drawn.append(grid.n_steps)
        return sample(grid, *args)

    for module in (mildbsde.config, mildbsde.solver):
        monkeypatch.setattr(module, "sample_ensemble", recorded)
    return drawn


# (section, key) -> (the loaded value, integer, least): a config that loads
# holds a finite number of at least ``least`` there, an integer if ``integer``
_NUMBER_RULES = {
    ("experiment", "seed"): (lambda c: c.seed, True, 0),
    ("discretization", "paths"): (lambda c: c.paths, True, 1),
    ("discretization", "steps"): (lambda c: c.steps, True, 1),
    ("discretization", "basis_coords"): (lambda c: c.basis_coords, True, 1),
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

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelled key must not be ignored silently
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text(
            "[experiment]\npreset = spin-chain\nseed = 5\n\n[discretization]\npath = 1\n"
        )
        with pytest.raises(ValidationError, match=r"config: unknown key.*\bpath\b"):
            load_config(cfg_file)

    @pytest.mark.parametrize(
        "key",
        ["tol", "tol_outer", "min_iter", "window_override", "auto_refine",
         "max_iter", "max_outer", "safety_margin"],
    )
    def test_removed_solver_key_rejected(self, tmp_path, capsys, key):
        # the Picard and outer tolerances follow from the data, every window
        # takes at least two Picard steps, the operator constants alone set
        # each window length, a window below one step always refines the grid,
        # and the iteration caps and the safety margin are solver constants;
        # no key sets any of these, so no [solver] section is read
        cfg = write_spin_config(tmp_path, tmp_path / "x")
        cfg.write_text(cfg.read_text() + f"\n[solver]\n{key} = 1\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config: unknown section(s): solver" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "write, section, key, message",
        [
            (write_spin_config, "discretization", "basis_degree",
             "unknown key(s) in [discretization]: basis_degree"),
            (write_spin_config, "discretization", "ridge",
             "unknown key(s) in [discretization]: ridge"),
            (write_reaction_diffusion_config, "model", "fit_trials",
             "unknown [model] key(s) for reaction-diffusion-1d: fit_trials"),
            (write_reaction_diffusion_config, "model", "fit_seed",
             "unknown [model] key(s) for reaction-diffusion-1d: fit_seed"),
        ],
        ids=["basis_degree", "ridge", "fit_trials", "fit_seed"],
    )
    def test_removed_constant_key_rejected(self, tmp_path, capsys, write, section, key, message):
        # every solve regresses on the quadratic basis with ridge 1e-8, and the
        # reaction-diffusion drift is fitted on one fixed seeded sample; these
        # are constants, so a key that sets one is unknown
        cfg = write(tmp_path, tmp_path / "x")
        ini = configparser.ConfigParser()
        ini.read(cfg)
        ini.read_dict({section: {key: 1}})
        with cfg.open("w") as f:
            ini.write(f)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"validation failure: config: {message}" in capsys.readouterr().err

    def test_empty_suite_parsed(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text(
            "[experiment]\npreset = spin-chain\nseed = 5\n\n[validation]\nsuite =\n"
        )
        cfg = load_config(cfg_file)
        assert cfg.validation_suite == ()

    def test_words_load_as_written(self, tmp_path):
        # no key takes a boolean, so yes/no/on/off/true/false stay text
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text(
            "[experiment]\npreset = spin-chain\nseed = 5\nout = yes\n\n"
            "[validation]\nsuite = off\n"
        )
        cfg = load_config(cfg_file)
        assert cfg.out_dir == "yes"
        assert cfg.validation_suite == ("off",)
        # nor does the suite take numbers: its entries are names
        cfg_file.write_text(cfg_file.read_text().replace("suite = off", "suite = 1, 2.50"))
        assert load_config(cfg_file).validation_suite == ("1", "2.50")


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
        with np.load(out / "solution.npz") as arrays:
            assert arrays["y_coef"].shape[0] == n_steps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "mildbsde-solution-v2"
        assert manifest["shapes"]["y"][0] == n_steps + 1
        assert manifest["seed"] == 321

    @pytest.mark.parametrize(
        "write_config", [write_spin_config, write_reaction_diffusion_config],
        ids=["spin-chain", "reaction-diffusion"],
    )
    def test_streamed_solution_npz_matches_library_solve(self, tmp_path, write_config):
        # solution.npz holds each node's fits; the Y and Z that load_solution
        # rebuilds from them are those of a library solve that keeps Y and Z,
        # cast to float32
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, out)
        assert main(["solve", "--config", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        problem = cfg.make_problem()
        sol, _ = kept_solve(problem, cfg.make_ensemble(problem), cfg.make_basis())
        self._assert_loads_as(out, sol)

    @staticmethod
    def _assert_loads_as(out, sol):
        manifest = json.loads((out / "manifest.json").read_text())
        times, y, z = load_solution(out)
        assert times.tobytes() == sol.grid.times.tobytes()
        for name, got, kept in (("y", y, sol.y), ("z", z, sol.z)):
            assert got.dtype == np.float32
            assert list(got.shape) == manifest["shapes"][name]
            assert got.tobytes() == kept.astype(np.float32).tobytes()

    @staticmethod
    def _rebuild_case(case):
        def w_end(e):
            return e.path_at(e.grid.n_steps)[:, :1]

        if case == "clipped":
            # the sharp terminal of test_solver's coupled problems; the
            # driver's offset carries Y past the ball's radius 2.4 * 0.4 near
            # t = 0, so the last pass clips on every draw
            op, bound, f0 = DiagonalOperator([0.0]), 0.4, None
            terminal = lambda e: 0.4 * np.tanh(5.0 * w_end(e))  # noqa: E731
            f1 = BoundedDriver(fn=lambda t, y, z: 1.5 - 0.5 * np.tanh(y + z[..., 0]),
                               lipschitz_const=0.5, bound=2.0)
        else:
            # monotonicity 0.5, so the solve runs on the equation shifted by lambda = 0.5
            op, bound, f1 = DiagonalOperator([0.0]), 0.1, None
            terminal = lambda e: 0.1 * np.tanh(w_end(e))  # noqa: E731
            f0 = DissipativeDrift(fn=lambda t, y: 0.5 * y - y ** 3, growth_scale=1.5,
                                  growth_power=3.0, monotonicity=0.5,
                                  lipschitz=lambda r: 0.5 + 3.0 * r ** 2)
        prob = BsdeProblem(operator=op, horizon=1.0, alpha=0.0, terminal=terminal,
                           terminal_bound=bound, f0=f0, f1=f1)
        prob.validated = True
        return prob

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from(["clipped", "shifted"]),
        seed=st.integers(0, 2 ** 32 - 1),
        paths=st.integers(100, 400),
        steps=st.integers(5, 30),
    )
    def test_load_solution_rebuilds_clipped_and_shifted_solves(self, case, seed, paths, steps):
        # a coupled solve whose last pass clips, and a solve with lambda > 0,
        # each written by run_solve and read back through load_solution
        prob = self._rebuild_case(case)
        with tempfile.TemporaryDirectory() as tmp, \
                patch.object(ExperimentConfig, "make_problem", lambda cfg: prob):
            out = Path(tmp)
            cfg = ExperimentConfig(preset="spin-chain", seed=seed, paths=paths, steps=steps,
                                   out_dir=str(out))
            with contextlib.redirect_stdout(io.StringIO()):
                run_solve(cfg)
            sol, report = kept_solve(prob, cfg.make_ensemble(prob), cfg.make_basis())
            if case == "clipped":
                with np.load(out / "solution.npz") as arrays:
                    assert arrays["clip_nodes"].size > 0
            else:
                assert report.lambda_shift > 0.0
            self._assert_loads_as(out, sol)

    def test_output_is_coefficients_not_paths(self, tmp_path):
        # the whole output directory is below a tenth of float32 Y and Z
        out = tmp_path / "run"
        assert main(["solve", "--config", str(write_spin_config(tmp_path, out, paths=1000))]) == 0
        shapes = json.loads((out / "manifest.json").read_text())["shapes"]
        paths_bytes = (math.prod(shapes["y"]) + math.prod(shapes["z"])) * 4
        assert sum(f.stat().st_size for f in out.iterdir()) < 0.1 * paths_bytes

    @pytest.fixture(scope="class")
    def spin_solve_peak(self, tmp_path_factory):
        """Shapes and traced peak bytes of one spin solve and write.

        2000 paths at 100 steps, refined to 200: Y is 201 x 2000 x 5 float64
        (15.3 MiB) and Z 200 x 2000 x 5 x 5 (76.3 MiB, 5 Y).
        """
        root = tmp_path_factory.mktemp("mem")
        cfg = load_config(write_spin_config(root, root / "out", paths=2000, steps=100))
        tracemalloc.start()
        try:
            run_solve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return json.loads((root / "out" / "manifest.json").read_text())["shapes"], peak

    def test_solve_holds_increments_and_checkpoints_not_paths(self, spin_solve_peak):
        # Y and Z leave the solve node by node. The ensemble holds its
        # increments (about one Y), W at every 15th node (0.07 Y) and one rebuilt
        # node, so a whole solve and write stays below 1.8 Y; holding every
        # path would add another Y
        shapes, peak = spin_solve_peak
        assert shapes["y"] == [201, 2000, 5]
        assert shapes["z"] == [200, 2000, 5, 5]
        assert peak < 1.8 * math.prod(shapes["y"]) * np.dtype(np.float64).itemsize

    def test_solve_never_holds_z_in_full(self, spin_solve_peak):
        # Z is 76.3 MiB, which the traced peak of the whole solve stays below
        shapes, peak = spin_solve_peak
        assert shapes["z"] == [200, 2000, 5, 5]
        assert peak < math.prod(shapes["z"]) * np.dtype(np.float64).itemsize

    def test_solve_never_holds_y_in_full(self, spin_solve_peak):
        # Y leaves the solve node by node, so a whole solve and write stays
        # below 2.6 of it
        shapes, peak = spin_solve_peak
        assert shapes["y"] == [201, 2000, 5]
        assert peak < 2.6 * math.prod(shapes["y"]) * np.dtype(np.float64).itemsize

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

    def test_coupled_solve_keeps_z_as_coefficients(self, tmp_path):
        # at 24 modes Z is 40 x 1000 x 24 x 24 float64 (175.8 MiB), more than
        # twice everything else the solve holds; the outer fixed point keeps it
        # as per-node coefficients (10 x 576 each), so a whole solve and write
        # stays below one Z
        cfg_path = write_reaction_diffusion_config(
            tmp_path, tmp_path / "mem", paths=1000, steps=40
        )
        cfg_path.write_text(cfg_path.read_text() + "\n[model]\nmodes = 24\n")
        cfg = load_config(cfg_path)
        cfg.basis_coords = 3
        tracemalloc.start()
        try:
            run_solve(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        z_shape = json.loads((tmp_path / "mem" / "manifest.json").read_text())["shapes"]["z"]
        assert z_shape == [40, 1000, 24, 24]
        report = json.loads((tmp_path / "mem" / "report.json").read_text())["report"]
        assert report["outer"]["iterations"] > 1
        assert peak < math.prod(z_shape) * np.dtype(np.float64).itemsize

    def test_solve_csv_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the CLI pins BLAS to one thread, so the spin-chain reference bytes
        # (tests/test_reference_outputs.py) hold with the thread count set to
        # 2 and with it unset, which lets OpenBLAS take every core
        reference = "6bf22831ac06f498bad7540303cebf104414011ea9e24a2f4b522c6ce4bc050c"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(REPO / "src")
        for threads in ("2", None):
            out = tmp_path / f"threads-{threads}"
            run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "mildbsde.cli", "solve",
                 "--config", str(REPO / "configs" / "spin-chain.ini"), "--out", str(out)],
                env=run_env, cwd=REPO, check=True, capture_output=True, timeout=600,
            )
            assert hashlib.sha256((out / "solve.csv").read_bytes()).hexdigest() == reference
            assert json.loads((out / "report.json").read_text())["blas_threads"] == 1

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

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
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
                ]
            )
        )
        monkeypatch.setattr(mildbsde.solver, "_MAX_ITER", 1)
        assert main(["solve", "--config", str(cfg)]) == 3
        assert "solver failure: no convergence within 1 iterations" in capsys.readouterr().err

    def test_outer_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        # one outer step can never meet the outer stopping rule of a coupled driver
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x")
        monkeypatch.setattr(mildbsde.solver, "_MAX_OUTER", 1)
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: outer iteration did not converge within 1 steps" in err

    def test_overflowing_outer_weight_exits_3(self, tmp_path, capsys):
        # beta = 4 K^2 + 1 = 785 on T = 1: exp(beta T) is no float, so the
        # solve fails naming beta before any outer sweep
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x")
        cfg.write_text(cfg.read_text() + "\n[model]\ndriver_strength = 14\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: the outer distance's weight exp(beta T) overflows" in err
        assert "beta = 4 K^2 + 1 = 785, T = 1" in err
        assert not (tmp_path / "x" / "solve.csv").exists()

    def test_basis_larger_than_the_path_count_exits_2(self, tmp_path, capsys):
        # 24 modes with every coordinate in a degree-2 basis is 325 features,
        # more than the 300 paths: each fit would be underdetermined
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x", paths=300, steps=20)
        cfg.write_text(cfg.read_text() + "\n[model]\nmodes = 24\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "validation failure: basis: 325 regression features exceed the 300 paths" in err
        assert not (tmp_path / "x" / "solve.csv").exists()

    def test_spin_solve_draws_once_at_the_planned_grid(self, tmp_path, monkeypatch):
        # spin-chain's first window is shorter than its 100 steps: the plan
        # refines to 200 before the draw, so no 100-step ensemble is drawn
        drawn = record_draws(monkeypatch)
        out = tmp_path / "run"
        run_solve(load_config(write_spin_config(tmp_path, out, paths=400, steps=100)))
        assert drawn == [200]
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["grid_refined"] == 2 and report["n_steps"] == 200
        assert sum("grid refined" in m for m in report["messages"]) == 1

    def test_refinement_beyond_memory_exits_3(self, tmp_path, capsys):
        # odd_power = 50 at a terminal amplitude of 170 asks for a window some
        # 6e304 times shorter than a step; no memory holds those paths
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20, seed=13)
        cfg.write_text(cfg.read_text() + "\n[model]\nodd_power = 50\nterminal_amp = 170\n")
        with pytest.warns(RuntimeWarning, match="overflow"):  # the dissipativity check's products
            assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"solver failure: a grid refined to \S+ steps .* physical memory", err)

    def test_lipschitz_overflow_exits_3(self, tmp_path, capsys, monkeypatch):
        # spin-chain's Lipschitz profile overflows a float at the inflated radius
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20)
        monkeypatch.setattr(mildbsde.solver, "_SAFETY_MARGIN", 1e300)
        assert main(["solve", "--config", str(cfg)]) == 3
        assert "solver failure: window length collapsed" in capsys.readouterr().err

    def test_window_collapse_exits_3(self, tmp_path, capsys, monkeypatch):
        # a huge safety margin inflates the ball radius until the cubic drift's
        # Lipschitz constant overflows: no window keeps the drift in its ball
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x", paths=200)
        monkeypatch.setattr(mildbsde.solver, "_SAFETY_MARGIN", 1e100)
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
        message = f"terminal: {key} must be a finite number of at least 0, got {value}"
        assert f"validation failure: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_driver_strength_exits_2(self, tmp_path, capsys, value):
        # a non-finite K1 gives a non-finite driver bound; it must not validate
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x", paths=200)
        cfg.write_text(cfg.read_text() + f"\n[model]\ndriver_strength = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        rule = "driver_strength must be a finite number of at least 0"
        assert f"validation failure: driver-bound: {rule}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["spin-chain", "reaction-diffusion-1d"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_horizon_exits_2(self, tmp_path, capsys, preset, value):
        write = write_spin_config if preset == "spin-chain" else write_reaction_diffusion_config
        cfg = write(tmp_path, tmp_path / "x", paths=200)
        cfg.write_text(cfg.read_text() + f"\n[model]\nhorizon = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        message = f"model: horizon must be a finite number of at least 0, got {value}"
        assert f"validation failure: {message}" in capsys.readouterr().err

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
            ("paths", 0, "[discretization] paths must be a positive integer, got 0"),
            ("steps", 0, "[discretization] steps must be a positive integer, got 0"),
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
        ini.read_dict({"discretization": {key: value}})
        with cfg.open("w") as f:
            ini.write(f)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_config(cfg)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"validation failure: config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, model",
        [
            ("spin-chain", "terminal_amp = 0"),
            ("reaction-diffusion-1d", "terminal_base = 0\nterminal_noise = 0"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_zero_terminal_bound_exits_2(self, tmp_path, capsys, preset, model, command):
        # the first window's radius is 2 M_alpha |xi|: a bound of 0 admits no
        # window, so validation refuses it before a solve could start
        write = write_spin_config if preset == "spin-chain" else write_reaction_diffusion_config
        cfg = write(tmp_path, tmp_path / "x", paths=200, steps=20)
        cfg.write_text(cfg.read_text() + f"\n[model]\n{model}\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "validation failure: terminal: a positive terminal bound is required" in err

    def test_short_interval_solves_or_names_its_failure(self, tmp_path, capsys):
        # on a tiny interval the invariant-ball denominator underflows to 0:
        # the ball condition then holds at every window length
        cfg = write_reaction_diffusion_config(tmp_path, tmp_path / "x", paths=200, seed=5)
        cfg.write_text(cfg.read_text() + "\n[model]\nlength = 1e-10\n")
        with np.errstate(over="ignore", under="ignore"):
            code = main(["solve", "--config", str(cfg)])
        assert code in (0, 3)
        if code == 3:
            assert "solver failure:" in capsys.readouterr().err

    def test_unknown_model_key_exits_2(self, tmp_path, capsys):
        cfg = write_spin_config(tmp_path, tmp_path / "x")
        cfg.write_text(cfg.read_text() + "\n[model]\nhalf_widht = 3\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "config: unknown [model] key(s) for spin-chain: half_widht" in capsys.readouterr().err


class TestValidateCommand:
    def test_default_suites_pass(self, tmp_path, capsys):
        for write in (write_spin_config, write_reaction_diffusion_config):
            cfg = write(tmp_path, tmp_path / "v")
            assert main(["validate", "--config", str(cfg)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == len(mildbsde.models.CHECKS)
            for line, name in zip(lines, mildbsde.models.CHECKS):
                assert re.match(f"(PASS|SKIP) {name}: ", line)

    def test_empty_suite_passes(self, tmp_path):
        out = tmp_path / "v"
        cfg = write_spin_config(tmp_path, out)
        assert main(["validate", "--config", str(cfg), "--suite", ""]) == 0

    def test_preset_flag_supplies_missing_preset(self, tmp_path):
        cfg_file = tmp_path / "c.ini"
        cfg_file.write_text("[experiment]\nseed = 5\n")
        assert main(["validate", "--config", str(cfg_file), "--preset", "spin-chain"]) == 0
        assert main(["validate", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("name", ["nonesuch", "gronwall", "gaussian-regression"])
    def test_unknown_item_exits_2_before_any_item_runs(self, tmp_path, capsys, name):
        cfg = write_spin_config(tmp_path, tmp_path / "v")
        assert main(["validate", "--config", str(cfg), "--suite", f"dissipativity,{name}"]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert f"unknown validation item(s): {name}" in err

    def test_numbers_in_the_suite_exit_2(self, tmp_path, capsys):
        cfg = write_spin_config(tmp_path, tmp_path / "v")
        cfg.write_text(cfg.read_text() + "\nsuite = 1,2\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "unknown validation item(s): 1, 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, exponents",
        [("reaction-diffusion-1d", [(0.25, 0.75)] * 2), ("spin-chain", [])],
        ids=["reaction-diffusion", "spin-chain"],
    )
    def test_exponent_checks_read_the_problem(self, monkeypatch, capsys, preset, exponents):
        calls = {}
        for name in ("smoothing_bound_check", "estimate_interp_constant"):
            original = getattr(mildbsde.spectral, name)

            def spy(op, alpha, theta, *args, _name=name, _original=original, **kwargs):
                calls.setdefault(_name, []).append((alpha, theta))
                return _original(op, alpha, theta, *args, **kwargs)

            monkeypatch.setattr(mildbsde.spectral, name, spy)
        cfg = ExperimentConfig(preset=preset, seed=3, validation_trials=40)
        cfg.validation_suite = ("smoothing-bound", "interpolation-inequality")
        run_validation(cfg)
        assert calls.get("smoothing_bound_check", []) == exponents
        assert calls.get("estimate_interp_constant", []) == exponents
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for line, name in zip(lines, cfg.validation_suite):
            if exponents:
                assert line.startswith(f"PASS {name}: ")
            else:
                assert line.startswith(f"SKIP {name}: ")
                assert not re.search(r"\d", line)

    @pytest.mark.parametrize("value", ["0", "-5", "2.5", "nan", "inf"])
    def test_bad_trials_exit_2(self, tmp_path, capsys, value):
        cfg = write_spin_config(tmp_path, tmp_path / "v")
        cfg.write_text(cfg.read_text().replace("trials = 400", f"trials = {value}"))
        assert main(["validate", "--config", str(cfg)]) == 2
        message = f"[validation] trials must be a positive integer, got {value}"
        assert f"validation failure: config: {message}" in capsys.readouterr().err

    def test_injected_anti_dissipative_fails(self, monkeypatch):
        cfg = ExperimentConfig(preset="spin-chain", seed=11, validation_trials=500)
        cfg.validation_suite = ("dissipativity",)
        bad = DissipativeDrift(
            fn=lambda t, y: +y, growth_scale=2.0, growth_power=3.0,
            monotonicity=0.0, lipschitz=2.0,
        )
        make_problem = ExperimentConfig.make_problem

        def anti_dissipative(self):
            problem = make_problem(self)
            problem.f0 = bad
            return problem

        monkeypatch.setattr(ExperimentConfig, "make_problem", anti_dissipative)
        with pytest.raises(ValidationError, match="dissipativity"):
            run_validation(cfg)

    def test_nan_driver_fails_as_at_the_gate(self, monkeypatch):
        # the build gate and the CLI run the same driver-bound check
        cfg = ExperimentConfig(preset="reaction-diffusion-1d", seed=11, validation_trials=40)
        make_problem = ExperimentConfig.make_problem

        def nan_driver(self):
            problem = make_problem(self)
            problem.f1 = replace(problem.f1, fn=lambda t, y, z: np.full_like(y, np.nan))
            return problem

        monkeypatch.setattr(ExperimentConfig, "make_problem", nan_driver)
        with pytest.raises(ValidationError) as err:
            run_validation(cfg)
        assert err.value.check == "driver-bound"


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


    def test_study_draws_once_per_entry(self, tmp_path, monkeypatch):
        drawn = record_draws(monkeypatch)
        cfg = write_spin_config(tmp_path, tmp_path / "study", paths=300, steps=100)
        assert main(["convergence-study", "--config", str(cfg), "--m-ladder", "300,400"]) == 0
        assert drawn == [200, 200]


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

    @pytest.mark.parametrize(
        "beta, message", [("0.5", "recursion overflowed"), ("1", "e^(bT) overflowed")]
    )
    def test_overflow_exits_3(self, capsys, beta, message):
        # b = 1e6 has no finite Gronwall constant: the solve cannot finish
        argv = ["gronwall-check", "--a", "1", "--b", "1e6", "--alpha", "0.5", "--beta", beta,
                "--horizon", "1"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3
        assert f"solver failure: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--alpha", "1.5", "alpha must lie in [0, 1)"),
         ("--points", "-1", "--points must be a positive integer, got -1")],
    )
    def test_out_of_range_argument_exits_2(self, capsys, flag, value, message):
        args = {"--a": "1", "--b": "1", "--alpha": "0", "--beta": "1", "--horizon": "1"}
        args[flag] = value
        argv = ["gronwall-check"] + [x for item in args.items() for x in item]
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestExitCodes:
    """The exception's class alone picks the exit code."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
            (["convergence-study", "--m-ladder", "abc"],
             "--m-ladder must be a positive integer, got 'abc'"),
            (["convergence-study", "--m-ladder", "0"],
             "--m-ladder must be a positive integer, got 0"),
            (["convergence-study", "--m-ladder", "200", "--l-ladder", "0"],
             "--l-ladder must be a positive integer, got 0"),
        ],
    )
    def test_bad_argument_exits_2_naming_it(self, tmp_path, capsys, argv, message):
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20)
        assert main(argv + ["--config", str(cfg)]) == 2
        assert f"validation failure: config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (ValidationError("terminal", "declared bound"), 2,
             "validation failure: terminal: declared bound"),
            (SolverError("no window fits"), 3, "solver failure: no window fits"),
        ],
    )
    def test_error_class_picks_the_code(self, tmp_path, capsys, monkeypatch, error, code, line):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(mildbsde.cli, "general_solve", fail)
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20)
        assert main(["solve", "--config", str(cfg)]) == code
        assert line in capsys.readouterr().err

    def test_programming_error_exits_1_with_traceback(self, tmp_path):
        # a ValueError raised inside the program is a bug, not a validation failure
        cfg = write_spin_config(tmp_path, tmp_path / "x", paths=200, steps=20)
        script = (
            "import runpy, mildbsde.solver\n"
            "def boom(*args, **kwargs):\n"
            "    raise ValueError('boom')\n"
            "mildbsde.solver.general_solve = boom\n"
            "runpy.run_module('mildbsde.cli', run_name='__main__')\n"
        )
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, "solve", "--config", str(cfg)],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 1
        assert "Traceback (most recent call last)" in done.stderr
        assert done.stderr.rstrip().endswith("ValueError: boom")
