"""Batch front end: solve runs, validation suites, convergence studies.

Exit codes follow the exception's class: 0 success; 1 a bug, with its traceback;
2 a ``ValidationError`` naming the key, argument or hypothesis check that failed;
3 a ``SolverError``, a validated solve that cannot finish.  ``[model]`` sizes and
powers are integers >= 1 (``reaction_power`` odd); every other number is finite
and >= 0, ``length`` and ``horizon`` > 0.
All outputs are reproducible from (config, seed); CSV files carry a schema
version in their first line and contain no volatile fields.  ``solution.npz``
holds each node's regression fit, from which ``load_solution`` rebuilds Y and Z.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import gronwall, models
from .config import ExperimentConfig, _convert, _words, load_config
from .solver import SolverError, ValidationError, _check_number, _rebuild_node, general_solve, plan_solve
from .wiener import RegressionBasis, TimeGrid, sample_ensemble

SOLVE_CSV_SCHEMA = "mildbsde-solve-csv-v1"
STUDY_CSV_SCHEMA = "mildbsde-study-csv-v1"
GRONWALL_CSV_SCHEMA = "mildbsde-gronwall-csv-v1"
SOLUTION_SCHEMA = "mildbsde-solution-v2"


def _json_ready(obj):
    """Recursively convert report structures to strict-JSON-safe values."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
    return obj


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    lines = [f"# schema={schema}", ",".join(header)]
    for row in rows:
        lines.append(
            ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n")


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config, preset=args.preset)
    elif args.preset:
        cfg = ExperimentConfig(preset=args.preset, seed=1234)
    else:
        raise ValidationError("config", "either --config or --preset is required")
    if args.seed is not None:
        cfg.seed = _check_number("config", "--seed", args.seed, True, 0)
    if args.out:
        cfg.out_dir = args.out
    return cfg


@functools.cache
def _openblas_threads():
    """(set, get) of the thread count of numpy's bundled OpenBLAS; None when unknown."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                return getattr(lib, f"{prefix}set_num_threads{suffix}"), get
    return None


# ---------------------------------------------------------------------------
# solve


def _planned_solve(cfg: ExperimentConfig, problem, basis, sink):
    """``general_solve`` of ``cfg`` on one ensemble, drawn at the grid ``plan_solve`` plans."""
    paths, steps = cfg.resolved_discretization()
    plan = plan_solve(problem, steps, cfg.seed, paths)
    # the ensemble is not kept here, so a refined paste grid frees this one
    return general_solve(problem, replace(cfg, steps=plan.n_steps).make_ensemble(problem),
                         basis, sink=sink, plan=plan)


def run_solve(cfg: ExperimentConfig) -> Path:
    """Solve ``cfg`` on one ensemble, drawn at the planned grid, and write its outputs.

    The sink copies each node's fit into one store per kind, allocated at node L-1."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = cfg.make_problem()
    basis = cfg.make_basis()
    kept, clips = {}, {}

    def sink(l: int, y_l: np.ndarray, z_l: np.ndarray | None, fit: tuple | None) -> None:
        if fit is None:
            kept["y_terminal"] = y_l
            return
        y_coef, y_clip, z_coef, shift = fit
        if "shift" not in kept:  # node L-1, the first with a fit
            kept.update(y_coef=np.empty((l + 1,) + y_coef.shape), shift=np.empty(l + 1),
                        z_coef=np.empty((l + 1,) + z_coef.shape))
        kept["y_coef"][l], kept["z_coef"][l], kept["shift"][l] = y_coef, z_coef, shift
        if y_clip is not None:
            clips[l] = y_clip

    report = _planned_solve(cfg, problem, basis, sink)
    clipped = sorted(clips)
    np.savez(
        out / "solution.npz", times=np.asarray(report.times), shift=kept["shift"],
        y_terminal=kept["y_terminal"].astype(np.float32),
        y_coef=kept["y_coef"], z_coef=kept["z_coef"],
        clip_nodes=np.array(clipped, dtype=np.int64),
        clip_scales=np.array([clips[l] for l in clipped]).reshape(len(clipped), report.n_paths),
    )
    y_shape = (report.n_steps + 1, report.n_paths, problem.operator.dimension)
    z_shape = (report.n_steps,) + y_shape[1:] + (report.n_noise,)

    blas = _openblas_threads()
    doc = _json_ready({"config": asdict(cfg), "report": asdict(report),
                       "blas_threads": blas[1]() if blas else "unpinned"})
    (out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    rows = zip(
        report.times,
        report.mean_y_h,
        report.max_y_h_per_node,
        [report.c1_bound] * len(report.times),
        report.max_y_theta_per_node,
        report.blowup_bound_per_node,
    )
    _write_csv(
        out / "solve.csv",
        SOLVE_CSV_SCHEMA,
        ["t", "mean_y_h", "max_y_h", "c1_bound", "max_y_theta", "blowup_bound"],
        rows,
    )

    manifest = {
        "schema": SOLUTION_SCHEMA,
        "files": {"arrays": "solution.npz", "report": "report.json", "csv": "solve.csv"},
        "shapes": {"y": list(y_shape), "z": list(z_shape)},
        "dtype": "float32",
        "seed": cfg.seed,
        "preset": cfg.preset,
        "basis": {"degree": basis.degree, "n_coords": basis.n_coords},
        "n_paths": report.n_paths,
        "n_noise": report.n_noise,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"solved {cfg.preset}: residual {report.residual_value:.4e}, "
        f"{len(report.windows)} windows, max |Y|_H {report.max_y_h:.4f} "
        f"(C1 {report.c1_bound:.4f})"
    )
    return out


def load_solution(out_dir) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, y, z) of a ``mildbsde solve`` output directory, y and z as float32.

    The ensemble is redrawn from the manifest's seed on the solved grid, and
    each node's Y and Z are rebuilt from its fits on its design and shifted
    back: the float32 Y and Z of the solve, bit for bit with one BLAS thread,
    the condition ``solve.csv`` also needs.
    """
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest.get("schema") != SOLUTION_SCHEMA:
        raise ValueError(f"{out} does not hold a {SOLUTION_SCHEMA} solution")
    with np.load(out / "solution.npz") as npz:
        arrays = dict(npz)
    k = manifest["n_noise"]
    ensemble = sample_ensemble(TimeGrid(arrays["times"]), k, manifest["n_paths"], manifest["seed"])
    basis = RegressionBasis(**manifest["basis"])
    clips = dict(zip(arrays["clip_nodes"].tolist(), arrays["clip_scales"]))
    y, z = (np.empty(manifest["shapes"][name], dtype=np.float32) for name in "yz")
    y[-1] = arrays["y_terminal"]
    for l, shift in enumerate(arrays["shift"]):
        fit = arrays["y_coef"][l], clips.get(l), arrays["z_coef"][l]
        y_l, z_l = _rebuild_node(basis.design(ensemble, l), *fit, k)
        y[l], z[l] = y_l * shift, z_l * shift
    return arrays["times"], y, z


# ---------------------------------------------------------------------------
# validation suite


def run_validation(cfg: ExperimentConfig) -> None:
    """Run the configured ``models.CHECKS``, after checking every name; raise on the
    first failure.  A check that does not apply prints SKIP."""
    unknown = [name for name in cfg.validation_suite if name not in models.CHECKS]
    if unknown:
        raise ValidationError("config", f"unknown validation item(s): {', '.join(unknown)}")
    problem = cfg.make_problem()
    rng = np.random.default_rng(cfg.seed)
    for name in cfg.validation_suite:
        passed, detail = models.CHECKS[name](problem, cfg.validation_trials, rng)
        status = "SKIP" if passed is None else "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        if status == "FAIL":
            raise ValidationError(name, detail)
    if not cfg.validation_suite:
        print("PASS (empty validation suite)")


# ---------------------------------------------------------------------------
# convergence study


def run_convergence_study(cfg: ExperimentConfig, m_ladder, l_ladder) -> Path:
    if not m_ladder or not l_ladder:
        raise ValidationError("config", "ladders must be nonempty")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = cfg.make_problem()
    basis = cfg.make_basis()
    rows = []
    for m in m_ladder:
        for l in l_ladder:
            # the study reads the report only: Y and Z are dropped node by node
            report = _planned_solve(replace(cfg, paths=m, steps=l), problem, basis,
                                    lambda *node: None)
            picard = max(report.picard_factors) if report.picard_factors else 0.0
            outer = 0.0
            if report.outer and report.outer["squared_factors"]:
                outer = max(report.outer["squared_factors"])
            rows.append((m, l, report.residual_value, picard, outer, len(report.windows)))
            print(
                f"M={m} L={l}: residual {report.residual_value:.4e}, "
                f"picard {picard:.3f}, outer^2 {outer:.3f}"
            )
    _write_csv(
        out / "study.csv",
        STUDY_CSV_SCHEMA,
        ["paths", "steps", "residual", "max_picard_factor", "max_outer_sq_factor", "windows"],
        rows,
    )
    return out


# ---------------------------------------------------------------------------
# gronwall table


def run_gronwall_check(a, b, alpha, beta, horizon, points, out_path=None) -> list[tuple]:
    params = gronwall.GronwallInput(a=a, b=b, alpha=alpha, beta=beta, horizon=horizon)
    _check_number("config", "--points", points, True, 1)
    m = gronwall.gronwall_constant(params)
    upper = min(horizon * (1.0 - (1e-3 if alpha > 0 else 1e-9)), np.nextafter(horizon, 0.0))
    rows = []
    for t in np.linspace(0.0, upper, points):
        rec = gronwall.gronwall_bound_iterative(params, float(t))
        bound = a * m * (horizon - float(t)) ** (-alpha)
        rows.append((float(t), float(rec), float(bound)))
    header = ["t", "recursion", "bound"]
    print(",".join(header))
    for row in rows:
        print(",".join(repr(v) for v in row))
    if out_path:
        _write_csv(Path(out_path), GRONWALL_CSV_SCHEMA, header, rows)
    return rows


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mildbsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="INI config path")
    common.add_argument("--preset", type=str, default=None, help="model preset name")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", type=str, default=None, help="output directory")

    sub.add_parser("solve", parents=[common], help="run one solve and write artifacts")

    p_val = sub.add_parser("validate", parents=[common], help="run hypothesis checks")
    p_val.add_argument("--suite", type=str, default=None, help="comma list of items ('' = none)")

    p_study = sub.add_parser("convergence-study", parents=[common])
    p_study.add_argument("--m-ladder", type=str, required=True, help="comma list of path counts")
    p_study.add_argument("--l-ladder", type=str, default=None, help="comma list of step counts")

    p_gron = sub.add_parser("gronwall-check", help="tabulate the recursion against its bound")
    for name in ("--a", "--b", "--alpha", "--beta", "--horizon"):
        p_gron.add_argument(name, type=float, required=True)
    p_gron.add_argument("--points", type=int, default=21)
    p_gron.add_argument("--out", type=str, default=None)
    return parser


def _ladder(flag: str, text: str) -> list[int]:
    """The entries of a comma list, each a positive integer checked by name."""
    entries = [_convert(x) for x in text.split(",") if x.strip()]
    return [_check_number("config", flag, m, True, 1) for m in entries]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # solve.csv bytes depend on the BLAS thread count; one thread is also the fastest here
    blas = _openblas_threads()
    if blas:
        blas[0](1)
    else:
        print("warning: BLAS thread count unknown and unpinned", file=sys.stderr)
    try:
        if args.command == "solve":
            run_solve(_config_from_args(args))
        elif args.command == "validate":
            cfg = _config_from_args(args)
            if args.suite is not None:
                cfg.validation_suite = _words(args.suite)
            run_validation(cfg)
        elif args.command == "convergence-study":
            cfg = _config_from_args(args)
            steps = args.l_ladder or str(cfg.resolved_discretization()[1])
            m_ladder, l_ladder = _ladder("--m-ladder", args.m_ladder), _ladder("--l-ladder", steps)
            run_convergence_study(cfg, m_ladder, l_ladder)
        elif args.command == "gronwall-check":
            run_gronwall_check(
                args.a, args.b, args.alpha, args.beta, args.horizon, args.points, args.out
            )
    except ValidationError as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
