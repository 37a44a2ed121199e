"""Batch front end: solve runs, validation suites, convergence studies.

Exit codes: 0 success, 2 hypothesis/validation failure, 3 solver failure.
All outputs are reproducible from (config, seed); CSV files carry a schema
version in their first line and contain no volatile fields.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import zipfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import gronwall, models, spectral
from .config import ExperimentConfig, load_config
from .models import ValidationError
from .solver import (
    GridTooCoarse,
    NonFiniteDrift,
    OuterDivergence,
    PicardDivergence,
    SolverError,
    WindowCollapse,
    general_solve,
)
from .wiener import RegressionBasis, TimeGrid, conditional_expectation, sample_ensemble

SOLVE_CSV_SCHEMA = "mildbsde-solve-csv-v1"
STUDY_CSV_SCHEMA = "mildbsde-study-csv-v1"
GRONWALL_CSV_SCHEMA = "mildbsde-gronwall-csv-v1"

# bytes per read when y.npy and z.npy are copied into solution.npz
_COPY_CHUNK = 1 << 22


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
        cfg.seed = int(args.seed)
    if args.out:
        cfg.out_dir = args.out
    return cfg


# ---------------------------------------------------------------------------
# solve


def _write_solution_npz(path: Path, times: np.ndarray, streamed) -> None:
    """solution.npz with the members np.savez would write.

    ``streamed`` lists (name, file, shape) for the arrays written node by node:
    each file holds its array as C-ordered float32 bytes, so its .npy member is
    the format-1.0 header followed by the file's bytes, copied in bounded chunks.
    """
    dtype = np.dtype(np.float32)
    descr = np.lib.format.dtype_to_descr(dtype)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        with zf.open("times.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array(fh, times, allow_pickle=False)
        for name, node_file, shape in streamed:
            node_file.seek(0)
            if os.fstat(node_file.fileno()).st_size != math.prod(shape) * dtype.itemsize:
                raise RuntimeError(f"the {name} file does not hold every node of shape {shape}")
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                header = {"descr": descr, "fortran_order": False, "shape": shape}
                np.lib.format.write_array_header_1_0(fh, header)
                shutil.copyfileobj(node_file, fh, _COPY_CHUNK)


def run_solve(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = cfg.make_problem()
    basis = cfg.make_basis()
    # Y and Z arrive node by node, right to left, and go straight to temporary
    # files at their node's offset; plain files, since mapped pages count in RSS
    with tempfile.TemporaryFile(dir=out) as y_file, tempfile.TemporaryFile(dir=out) as z_file:

        def sink(l: int, y_l: np.ndarray, z_l: np.ndarray | None) -> None:
            for node_file, node in ((y_file, y_l), (z_file, z_l)):
                if node is not None:
                    node = node.astype(np.float32)
                    node_file.seek(l * node.nbytes)
                    node_file.write(node)

        # the ensemble is not kept here, so a refined grid frees the coarse one
        solution, report = general_solve(
            problem, cfg.make_ensemble(problem), basis, cfg.solver, sink=sink
        )
        y_shape = (report.n_steps + 1, report.n_paths, problem.operator.dimension)
        z_shape = (report.n_steps,) + y_shape[1:] + (report.n_noise,)
        # snapshots are for inspection; the report carries the full-precision numbers
        _write_solution_npz(
            out / "solution.npz", solution.grid.times,
            [("y", y_file, y_shape), ("z", z_file, z_shape)],
        )

    doc = _json_ready({"config": asdict(cfg), "report": asdict(report)})
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
        "schema": "mildbsde-solution-v1",
        "files": {"arrays": "solution.npz", "report": "report.json", "csv": "solve.csv"},
        "shapes": {"y": list(y_shape), "z": list(z_shape)},
        "dtype": "float32",
        "seed": cfg.seed,
        "preset": cfg.preset,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"solved {cfg.preset}: residual {report.residual_value:.4e}, "
        f"{len(report.windows)} windows, max |Y|_H {report.max_y_h:.4f} "
        f"(C1 {report.c1_bound:.4f})"
    )
    return out


# ---------------------------------------------------------------------------
# validation suite


def _dissipativity_item(problem, trials, rng) -> dict:
    rep = models.sample_dissipativity(problem, trials, rng)
    return {
        "passed": rep.passed,
        "detail": f"max inner product {rep.max_inner_product:.3e} over {rep.trials} pairs",
    }


def _growth_item(problem, trials, rng) -> dict:
    if problem.f0.is_zero:
        return {"passed": True, "detail": "zero drift"}
    rep = models.sample_growth_and_lipschitz(problem, trials, rng)
    return {
        "passed": rep.growth_ok and rep.lipschitz_ok,
        "detail": (
            f"growth ratio {rep.worst_growth_ratio:.3f}, "
            f"lipschitz ratio {rep.worst_lipschitz_ratio:.3f}"
        ),
    }


def _smoothing_item(problem, trials, rng) -> dict:
    alpha = problem.alpha
    beta = problem.theta if problem.theta > alpha else min(alpha + 0.5, 0.75)
    coarse = spectral.smoothing_bound_check(
        problem.operator, alpha, beta, trials=trials // 4, rng=rng, t_points=64
    )
    fine = spectral.smoothing_bound_check(
        problem.operator, alpha, beta, trials=trials // 4, rng=rng, t_points=192
    )
    stable = math.isfinite(fine) and fine <= coarse * 1.10 + 1e-12
    return {
        "passed": stable,
        "detail": f"empirical constant {fine:.4f} (coarse grid {coarse:.4f})",
    }


def _interp_item(problem, trials, rng) -> dict:
    alpha = problem.alpha if 0.0 < problem.alpha < 1.0 else 0.25
    theta = problem.theta if problem.alpha > 0 else 0.5
    if not alpha < theta < 1.0:
        theta = min(2.0 * alpha, (1.0 + alpha) / 2.0)
    c_emp = spectral.estimate_interp_constant(
        problem.operator, alpha, theta, trials=trials, rng=rng
    )
    fresh = spectral.estimate_interp_constant(
        problem.operator, alpha, theta, trials=trials, rng=rng
    )
    return {
        "passed": fresh <= 1.1 * c_emp,
        "detail": f"constant {c_emp:.4f}, fresh resample {fresh:.4f}",
    }


def _gronwall_item(problem, trials, rng) -> dict:
    params = gronwall.GronwallInput(a=1.0, b=1.0, alpha=0.0, beta=1.0, horizon=1.0)
    m = gronwall.gronwall_constant(params)
    ts = np.linspace(0.0, 0.95, 16)
    vals = [gronwall.gronwall_bound_iterative(params, float(t)) for t in ts]
    dominated = all(v <= params.a * m + 1e-9 for v in vals)
    raw = gronwall.gronwall_bound_iterative(
        gronwall.GronwallInput(a=1.0, b=0.0, alpha=0.0, beta=1.0, horizon=1.0), 0.5
    )
    return {
        "passed": dominated and raw == 1.0,
        "detail": f"constant {m:.4f}, recursion max {max(vals):.4f}",
    }


def _gaussian_item(problem, trials, rng) -> dict:
    grid = TimeGrid.uniform(1.0, 20)
    ens = sample_ensemble(grid, 1, max(trials * 10, 20000), seed=int(rng.integers(2 ** 31)))
    basis = RegressionBasis(degree=2, ridge=1e-10)
    mid = 10
    w_mid = ens.paths()[:, mid, 0]
    w_end = ens.paths()[:, -1, 0]
    fit = conditional_expectation(ens, basis, mid, w_end)
    err_lin = float(np.sqrt(np.mean((fit.fitted - w_mid) ** 2)))
    fit2 = conditional_expectation(ens, basis, mid, w_end ** 2)
    target2 = w_mid ** 2 + (1.0 - grid.times[mid])
    err_quad = float(np.sqrt(np.mean((fit2.fitted - target2) ** 2) / np.mean(target2 ** 2)))
    passed = err_lin < 0.05 and err_quad < 0.05
    return {
        "passed": passed,
        "detail": f"martingale rmse {err_lin:.4f}, second-moment rel rmse {err_quad:.4f}",
    }


_VALIDATION_ITEMS = {
    "dissipativity": _dissipativity_item,
    "growth-lipschitz": _growth_item,
    "smoothing-bound": _smoothing_item,
    "interpolation-inequality": _interp_item,
    "gronwall": _gronwall_item,
    "gaussian-regression": _gaussian_item,
}


def run_validation(cfg: ExperimentConfig, f0_override=None) -> dict:
    """Execute the configured validation items; raise on the first failure.

    ``f0_override`` substitutes the drift (control experiments, e.g. an
    anti-dissipative f0) without rebuilding the model.
    """
    problem = cfg.make_problem()
    if f0_override is not None:
        problem.f0 = f0_override
    rng = np.random.default_rng(cfg.seed)
    results = {}
    for name in cfg.validation_suite:
        if name not in _VALIDATION_ITEMS:
            raise ValidationError("config", f"unknown validation item {name!r}")
        item = _VALIDATION_ITEMS[name](problem, cfg.validation_trials, rng)
        results[name] = item
        status = "PASS" if item["passed"] else "FAIL"
        print(f"{status} {name}: {item['detail']}")
        if not item["passed"]:
            raise ValidationError(name, item["detail"])
    if not cfg.validation_suite:
        print("PASS (empty validation suite)")
    return results


# ---------------------------------------------------------------------------
# convergence study


def _discard_node(l: int, y_l: np.ndarray, z_l: np.ndarray | None) -> None:
    pass


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
            # the study reads the report only: Y and Z are dropped node by node, and
            # the ensemble is not kept here, so a refined grid frees the coarse one
            _, report = general_solve(
                problem, replace(cfg, paths=int(m), steps=int(l)).make_ensemble(problem),
                basis, cfg.solver, sink=_discard_node,
            )
            picard = max(report.picard_factors) if report.picard_factors else 0.0
            outer = 0.0
            if report.outer and report.outer["squared_factors"]:
                outer = max(report.outer["squared_factors"])
            rows.append(
                (int(m), int(l), report.residual_value, picard, outer, len(report.windows))
            )
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
    m = gronwall.gronwall_constant(params)
    upper = horizon * (1.0 - 1e-3) if alpha > 0 else horizon * (1.0 - 1e-9)
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
    p_gron.add_argument("--a", type=float, required=True)
    p_gron.add_argument("--b", type=float, required=True)
    p_gron.add_argument("--alpha", type=float, required=True)
    p_gron.add_argument("--beta", type=float, required=True)
    p_gron.add_argument("--horizon", type=float, required=True)
    p_gron.add_argument("--points", type=int, default=21)
    p_gron.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            run_solve(_config_from_args(args))
        elif args.command == "validate":
            cfg = _config_from_args(args)
            if args.suite is not None:
                cfg.validation_suite = tuple(
                    s.strip() for s in args.suite.split(",") if s.strip()
                )
            run_validation(cfg)
        elif args.command == "convergence-study":
            cfg = _config_from_args(args)
            m_ladder = [int(x) for x in args.m_ladder.split(",") if x.strip()]
            if args.l_ladder:
                l_ladder = [int(x) for x in args.l_ladder.split(",") if x.strip()]
            else:
                l_ladder = [cfg.resolved_discretization()[1]]
            run_convergence_study(cfg, m_ladder, l_ladder)
        elif args.command == "gronwall-check":
            run_gronwall_check(
                args.a, args.b, args.alpha, args.beta, args.horizon, args.points, args.out
            )
    except (ValidationError, ValueError) as err:
        print(f"validation failure: {err}", file=sys.stderr)
        return 2
    except (
        PicardDivergence, OuterDivergence, WindowCollapse, GridTooCoarse, NonFiniteDrift,
    ) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
