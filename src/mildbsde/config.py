"""Experiment configuration: INI files with sections, presets, and defaults.

Schema (all keys optional unless noted; an unknown section or key, including
a ``[model]`` key that is not a field of the preset's spec, is rejected as a
``config`` validation failure, and so is a ``paths``, ``steps``,
``basis_coords``, ``max_iter``, ``max_outer`` or ``trials`` that is not an
integer of at least 1, a ``seed`` or ``basis_degree`` that is not an integer of
at least 0, a ``ridge`` that is not a finite number of at least 0, or a
``safety_margin`` that is not a finite number of at least 1):

    [experiment]
    preset = spin-chain | reaction-diffusion-1d   (required unless --preset given)
    seed = 1234                                   (required: reproducibility)
    out = runs/spin

    [model]          ; overrides forwarded to the preset spec, e.g.
    half_width = 2   ; spin-chain
    modes = 6        ; reaction-diffusion-1d

    [discretization]
    paths = 10000
    steps = 100      ; the noise dimension is always the model's own
    basis_degree = 2
    basis_coords =   ; defaults to all noise coordinates
    ridge = 1e-8

    [solver]
    max_iter = 50
    max_outer = 25
    safety_margin = 1.2

    [validation]
    suite = dissipativity,growth-lipschitz,smoothing-bound,interpolation-inequality,gronwall,gaussian-regression
    trials = 2000
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import BsdeProblem, ValidationError, build_preset
from .solver import SolverConfig
from .wiener import RegressionBasis, TimeGrid, WienerEnsemble, sample_ensemble

__all__ = ["ExperimentConfig", "load_config", "VALIDATION_SUITE"]

VALIDATION_SUITE = (
    "dissipativity",
    "growth-lipschitz",
    "smoothing-bound",
    "interpolation-inequality",
    "gronwall",
    "gaussian-regression",
)

_DISCRETIZATION_DEFAULTS = {
    "spin-chain": {"paths": 10000, "steps": 100},
    "reaction-diffusion-1d": {"paths": 4000, "steps": 80},
}


def _convert(text: str):
    text = text.strip()
    if text == "":
        return None
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            return [float(p) for p in parts]
        except ValueError:
            return parts
    return text


@dataclass
class ExperimentConfig:
    preset: str
    seed: int
    out_dir: str = "mildbsde-out"
    model_overrides: dict = field(default_factory=dict)
    paths: int | None = None
    steps: int | None = None
    basis_degree: int = 2
    basis_coords: int | None = None
    ridge: float = 1e-8
    solver: SolverConfig = field(default_factory=SolverConfig)
    validation_suite: tuple = VALIDATION_SUITE
    validation_trials: int = 2000

    def __post_init__(self):
        if self.seed is None:
            raise ValidationError("config", "a seed is required (reproducibility contract)")

    # -- builders ----------------------------------------------------------
    def make_problem(self) -> BsdeProblem:
        return build_preset(self.preset, **self.model_overrides)

    def resolved_discretization(self) -> tuple[int, int]:
        """(paths, steps), with the preset's defaults for unset values."""
        defaults = _DISCRETIZATION_DEFAULTS.get(self.preset, {"paths": 4000, "steps": 80})
        paths = self.paths if self.paths is not None else defaults["paths"]
        steps = self.steps if self.steps is not None else defaults["steps"]
        return paths, steps

    def make_ensemble(self, problem: BsdeProblem) -> WienerEnsemble:
        paths, steps = self.resolved_discretization()
        grid = TimeGrid.uniform(problem.horizon, steps)
        return sample_ensemble(grid, problem.noise_dim, paths, self.seed)

    def make_basis(self) -> RegressionBasis:
        return RegressionBasis(
            degree=self.basis_degree, n_coords=self.basis_coords, ridge=self.ridge
        )


# INI key -> SolverConfig field; every field has exactly one key
_SOLVER_KEYS = {k: k for k in ("max_iter", "max_outer", "safety_margin")}


def _section(sections: dict, name: str, keys: dict) -> dict:
    """Take one section's values, renamed by ``keys`` (INI key -> field name)."""
    values = sections.pop(name, {})
    unknown = sorted(set(values) - set(keys))
    if unknown:
        raise ValidationError("config", f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    return {keys[k]: v for k, v in values.items()}


# (section, key) -> (integer, least, empty_ok): a set number must be finite
# and at least ``least``, and an integer if ``integer``; only an optional key
# may be left empty (a missing seed is named later)
_NUMBERS = {
    ("experiment", "seed"): (True, 0, True),
    ("discretization", "paths"): (True, 1, True),
    ("discretization", "steps"): (True, 1, True),
    ("discretization", "basis_degree"): (True, 0, False),
    ("discretization", "basis_coords"): (True, 1, True),
    ("discretization", "ridge"): (False, 0, False),
    ("solver", "max_iter"): (True, 1, False),
    ("solver", "max_outer"): (True, 1, False),
    ("solver", "safety_margin"): (False, 1, False),
    ("validation", "trials"): (True, 1, False),
}


def _check_numbers(sections: dict) -> None:
    """Reject a set number that breaks its ``_NUMBERS`` rule, naming the key."""
    for (section, key), (integer, least, empty_ok) in _NUMBERS.items():
        value = sections.get(section, {}).get(key, least)  # an absent key passes
        if value is None and empty_ok:
            continue
        kinds = int if integer else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds) or not least <= value < math.inf:
            what = f"a finite number of at least {least}"
            if integer:
                what = ("a positive" if least else "a nonnegative") + " integer"
            raise ValidationError("config", f"[{section}] {key} must be {what}, got {value!r}")


def load_config(path: str | Path, preset: str | None = None) -> ExperimentConfig:
    """Read an INI config; absent keys keep the dataclass defaults.

    A given ``preset`` replaces the file's ``[experiment] preset``, or supplies it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(str(path))
    if not read:
        raise ValidationError("config", f"cannot read config file {path}")
    sections = {
        name: {k: _convert(v) for k, v in parser.items(name)} for name in parser.sections()
    }
    _check_numbers(sections)
    exp = _section(sections, "experiment", {"preset": "preset", "seed": "seed", "out": "out_dir"})
    model = sections.pop("model", {})
    disc = _section(
        sections, "discretization",
        {k: k for k in ("paths", "steps", "basis_degree", "basis_coords", "ridge")},
    )
    solver = SolverConfig(**_section(sections, "solver", _SOLVER_KEYS))
    val = _section(
        sections, "validation", {"suite": "validation_suite", "trials": "validation_trials"}
    )
    if sections:
        raise ValidationError("config", f"unknown section(s): {', '.join(sorted(sections))}")

    if preset:
        exp["preset"] = preset
    if exp.get("preset") is None:
        raise ValidationError("config", "[experiment] preset is required")
    if exp.get("seed") is None:
        raise ValidationError("config", "[experiment] seed is required")
    exp["preset"] = str(exp["preset"])
    if "out_dir" in exp:
        exp["out_dir"] = str(exp["out_dir"])

    if "coefficients" in model and isinstance(model["coefficients"], list):
        model["coefficients"] = np.asarray(model["coefficients"], dtype=float)

    if "validation_suite" in val:
        suite = val["validation_suite"]
        if suite is None:
            val["validation_suite"] = ()  # explicitly empty selection
        elif isinstance(suite, list):
            val["validation_suite"] = tuple(suite)
        else:
            val["validation_suite"] = (str(suite),)

    return ExperimentConfig(**exp, model_overrides=model, **disc, solver=solver, **val)
