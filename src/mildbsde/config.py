"""Experiment configuration: INI files with sections, presets, and defaults.

Schema (all keys optional unless noted).  An unknown section or key, including
a ``[model]`` key that is not a field of the preset's spec, is a ``config``
validation failure.  So is a number that breaks its rule: ``paths``, ``steps``,
``basis_coords`` and ``trials`` are integers of at least 1, and ``seed`` an
integer of at least 0.  ``[model]`` numbers are checked by the same rule in
their spec, which names the failing field.  The regression basis keeps the
``RegressionBasis`` defaults except its coordinates, which are set here.
``[validation] suite`` is a comma list of names of ``models.CHECKS``, read as
written; by default it holds every check, in the table's order.

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
    basis_coords =   ; defaults to all noise coordinates

    [validation]
    suite = dissipativity,growth-lipschitz,smoothing-bound,interpolation-inequality,driver-bound
    trials = 2000
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .models import CHECKS, BsdeProblem, build_preset
from .solver import ValidationError, _check_number
from .wiener import RegressionBasis, TimeGrid, WienerEnsemble, sample_ensemble

__all__ = ["ExperimentConfig", "load_config", "VALIDATION_SUITE"]

VALIDATION_SUITE = tuple(CHECKS)

_DISCRETIZATION_DEFAULTS = {
    "spin-chain": {"paths": 10000, "steps": 100},
    "reaction-diffusion-1d": {"paths": 4000, "steps": 80},
}


def _convert(text: str):
    text = text.strip()
    if text == "":
        return None
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


def _words(text: str) -> tuple[str, ...]:
    """The nonempty entries of a comma list, as written."""
    return tuple(w.strip() for w in text.split(",") if w.strip())


@dataclass
class ExperimentConfig:
    preset: str
    seed: int
    out_dir: str = "mildbsde-out"
    model_overrides: dict = field(default_factory=dict)
    paths: int | None = None
    steps: int | None = None
    basis_coords: int | None = None
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
        return RegressionBasis(n_coords=self.basis_coords)


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
    ("discretization", "basis_coords"): (True, 1, True),
    ("validation", "trials"): (True, 1, False),
}


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
    for (section, key), (integer, least, empty_ok) in _NUMBERS.items():
        value = sections.get(section, {}).get(key, least)  # an absent key passes
        if value is not None or not empty_ok:
            _check_number("config", f"[{section}] {key}", value, integer, least)
    exp = _section(sections, "experiment", {"preset": "preset", "seed": "seed", "out": "out_dir"})
    model = sections.pop("model", {})
    disc = _section(sections, "discretization", {k: k for k in ("paths", "steps", "basis_coords")})
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

    if "validation_suite" in val:  # the names as written; an empty value selects none
        val["validation_suite"] = _words(parser.get("validation", "suite"))

    return ExperimentConfig(**exp, model_overrides=model, **disc, **val)
