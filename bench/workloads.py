"""The benchmark workloads: inputs from a seed, one timed solve, acceptance checks.

Each workload is split into the parts the runner times separately:

* ``setup(seed)`` builds fresh problem, operator and ensemble objects, the way
  every ``mildbsde solve`` does; it is what ``setup_s`` measures;
* ``run(prepared, out_dir)`` is the timed solve, a single library call;
* ``inspect(prepared, raw, out_dir, seconds)`` is untimed: it reads the
  program's outputs, checks them against the acceptance tolerances of
  ``tests/test_acceptance.py`` and removes the output directory.

The martingale oracles of acceptance criteria 1 and 2 are not workloads. At
M = 1e5 their Z tolerances are one to two Monte Carlo standard errors wide
at the early nodes: they hold for the test's fixed ensemble, but about one random
ensemble in eight misses them, so a run on a fresh seed could not tell a
wrong solve from an unlucky one.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

# library calls go through the modules, so that functions the tracer patches are the ones called
from mildbsde import cli, config

BYTES_PER_FLOAT64 = 8
MIB = 2 ** 20


@dataclass
class Outcome:
    """What one solve produced, read back from its outputs."""

    residual: float
    fingerprint: bytes  # solve.csv bytes; equal inputs must give equal bytes
    misses: list  # acceptance criteria this solve missed, as readable lines
    report: dict  # the SolverReport as report.json holds it
    z_mib: float  # size of the float64 Z array the solver held, from its shape
    output_bytes: int  # bytes of files the solve wrote


def counters(report: dict) -> dict:
    """Counters of a SolverReport dict; each repeats exactly for fixed inputs."""
    windows = report["windows"]
    outer = report.get("outer") or {}
    sq = outer.get("squared_factors") or []
    return {
        "windows": len(windows),
        "picard_iterations": sum(w["iterations"] for w in windows),
        "outer_iterations": outer.get("iterations", 0),
        "grid_refined": report["grid_refined"],
        "halvings": sum(w["halvings"] for w in windows),
        "ball_clipped": sum(w["ball_clipped"] for w in windows),
        "rank_deficient": report["rank_deficient_count"],
        "max_picard_factor": max(report["picard_factors"], default=0.0),
        "max_outer_sq_factor": max(sq, default=0.0),
    }


class CliPreset:
    """One ``mildbsde solve`` of a shipped config, through ``cli.run_solve``.

    The config is loaded in set-up; the timed call builds the preset, samples
    the ensemble, solves and writes report.json, solve.csv, solution.npz and
    manifest.json, as ``mildbsde solve`` does.
    Each solve writes to a new directory that is removed after it is read.
    Rewriting an existing solution.npz in place makes ext4 flush it to disk
    on close, which would time the disk instead of the program.
    """

    seeds_per_run = 2

    def __init__(self, name: str, config: str):
        self.name = name
        self.config = config

    def setup(self, seed: int):
        cfg = config.load_config(self.config)
        cfg.seed = seed
        problem = cfg.make_problem()
        cfg.make_ensemble(problem)
        return cfg

    def run(self, prepared, out_dir: Path):
        prepared.out_dir = str(out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run_solve(prepared)

    def inspect(self, prepared, raw, out_dir: Path, seconds: float) -> Outcome:
        report = json.loads((out_dir / "report.json").read_text())["report"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        outcome = Outcome(
            residual=float(report["residual_value"]),
            fingerprint=(out_dir / "solve.csv").read_bytes(),
            misses=self.misses(report, seconds),
            report=report,
            z_mib=math.prod(manifest["shapes"]["z"]) * BYTES_PER_FLOAT64 / MIB,
            output_bytes=sum(f.stat().st_size for f in out_dir.iterdir()),
        )
        shutil.rmtree(out_dir)
        return outcome

    def misses(self, report: dict, seconds: float) -> list:
        out = []
        # report.json spells non-finite floats as strings
        if not math.isfinite(float(report["residual_value"])):
            out.append("residual is not finite")
        max_y_h, c1 = float(report["max_y_h"]), float(report["c1_bound"])
        # acceptance criterion 5
        if not max_y_h <= 1.1 * c1:
            out.append(f"criterion 5: max |Y|_H {max_y_h:.4f} exceeds 1.1 C1 = {1.1 * c1:.4f}")
        return out


class SpinChain(CliPreset):
    def misses(self, report: dict, seconds: float) -> list:
        out = super().misses(report, seconds)
        factors = report["picard_factors"]
        # acceptance criterion 3
        if not factors:
            out.append("criterion 3: no contraction factors were recorded")
        elif not max(factors) <= 0.6:
            out.append(f"criterion 3: Picard factor {max(factors):.4f} exceeds 0.6")
        if not seconds < 300.0:
            out.append(f"criterion 3: solve took {seconds:.1f} s, not below 300 s")
        windows = report["windows"]
        if not any(w["halvings"] for w in windows) and len(windows) != report[
            "window_count_formula"
        ]:
            out.append(
                f"criterion 3: {len(windows)} windows, pasting formula gives "
                f"{report['window_count_formula']}"
            )
        return out


class ReactionDiffusion(CliPreset):
    def misses(self, report: dict, seconds: float) -> list:
        out = super().misses(report, seconds)
        outer = report["outer"]
        sq = outer["squared_factors"]
        # acceptance criterion 4
        if not math.isclose(outer["beta"], 2.0, rel_tol=1e-6):
            out.append(f"criterion 4: outer weight beta {outer['beta']:.6f}, expected 2")
        if not outer["iterations"] <= 10:
            out.append(f"criterion 4: {outer['iterations']} outer iterations, more than 10")
        if not all(f <= 0.6 for f in sq):
            out.append(f"criterion 4: squared outer factor {max(sq):.4f} exceeds 0.6")
        # supplementary invariant test_blowup_envelope_on_reaction_diffusion
        margin = float(report["blowup_margin"])
        if not margin <= 1.1:
            out.append(f"blow-up margin {margin:.4f} exceeds 1.1")
        return out


def make_workloads(root: Path) -> dict:
    configs = root / "configs"
    items = [
        SpinChain("spin-chain", str(configs / "spin-chain.ini")),
        ReactionDiffusion("reaction-diffusion", str(configs / "reaction-diffusion-1d.ini")),
    ]
    return {w.name: w for w in items}

