"""Benchmark of mildbsde solves: time to a checked solution, memory and per-layer self time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spin-chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workloads, metrics and units are declared in BENCHMARK.json.  The
program is imported from the checkout's ``src/`` and nothing is installed.
A run first performs ``SETUP_WARMUP`` set-ups, then rounds of one set-up and
one solve on fresh objects until ``--seconds`` have passed and every input
ensemble of the run has been solved, the first one twice.  Every solve is
checked against the acceptance tolerances and against earlier solves of the
same inputs; a solve that raises or misses either counts as failed.  The run
is incorrect when a solve returned outputs that miss either check, or raised
anything but the solver's own ``SolverError``.  A ``SolverError`` is the
program declining to solve, which ``mildbsde solve`` reports with exit code 2
or 3: it counts as failed without making the run incorrect.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
warm-up round, then alternates untraced and traced rounds on the run's
first ensemble that the solver accepts until ``--seconds`` have passed,
reports the per-layer metrics and writes the spans to ``.bench_runs/`` as
JSON lines.
The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: solve.csv bytes depend on the
# thread count, and one thread is as fast as two for these small matrices.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_runs"
SETUP_WARMUP = 8
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 900


# ---------------------------------------------------------------------------
# machine record


def _blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _l3_bytes():
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    """Digest of the library sources and configs, which identifies the code without git."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.ini"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l3_bytes": _l3_bytes(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# rounds


def input_seeds(seed: int, count: int) -> list[int]:
    """Distinct ensemble seeds of one run, derived from the benchmark seed."""
    return [int(np.random.SeedSequence([seed, i]).generate_state(1)[0]) for i in range(count)]


class Run:
    """Solves of one workload in one process, with their checks and failures."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0  # failed solves whose outputs were wrong, or that crashed
        self.first: dict[int, object] = {}  # input seed -> outcome of its first solve

    def round(self, seed: int, tracer=None):
        """One set-up and one solve; returns (solve seconds, outcome), or None on failure."""
        from mildbsde.solver import SolverError

        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        out_dir = self.out_dir / f"solve-{self.attempted}"
        self.attempted += 1
        try:
            with span("bench.setup"):
                t0 = time.perf_counter()
                prepared = self.workload.setup(seed)
                self.setup_s.append(time.perf_counter() - t0)
            with span("bench.solve"):
                t0 = time.perf_counter()
                raw = self.workload.run(prepared, out_dir)
                seconds = time.perf_counter() - t0
            outcome = self.workload.inspect(prepared, raw, out_dir, seconds)
        except SolverError:  # a failed solve is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.incorrect += 1
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        misses = list(outcome.misses)
        if self.first.setdefault(seed, outcome).fingerprint != outcome.fingerprint:
            misses.append("output differs from an earlier solve of the same inputs")
        for line in misses:
            print(f"{self.workload.name}: solve {self.attempted - 1} failed: {line}", file=sys.stderr)
        self.failed += bool(misses)
        self.incorrect += bool(misses)
        return seconds, outcome


def measure(workload, seed: int, seconds: float, out_dir: Path) -> tuple[Run, dict]:
    """End-to-end metrics, tracing off."""
    seeds = input_seeds(seed, workload.seeds_per_run)
    run = Run(workload, out_dir)
    for i in range(SETUP_WARMUP):
        t0 = time.perf_counter()
        workload.setup(seeds[i % len(seeds)])
        run.setup_s.append(time.perf_counter() - t0)
        gc.collect()
    start = time.perf_counter()
    r = 0
    while r <= len(seeds) or time.perf_counter() - start < seconds:
        done = run.round(seeds[r % len(seeds)])
        if done:
            run.solve_s.append(done[0])
        r += 1
        gc.collect()
    if not run.first:
        return run, {}
    firsts = list(run.first.values())
    metrics = {
        "solve_s": statistics.median(run.solve_s),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "residual": statistics.median(o.residual for o in firsts),
    }
    return run, metrics


def _round_layers(names, spans: list[dict], solve_root: dict, solve_s: float, outcome) -> dict:
    """Per-layer metrics of one traced round from its spans and its outcome.

    ``names`` are all traced span names, so that a layer the round never
    called reports zeros."""
    from tracer import descendants, self_times
    from workloads import counters

    selfs = self_times(spans)
    fields = ("self_s", "total_s", "calls", "states", "gflop", "repeat")
    agg = {name: dict.fromkeys(fields, 0.0) for name in names}
    for s in spans:
        if s["name"].startswith("bench."):
            continue
        a = agg[s["name"]]
        a["self_s"] += selfs[s["id"]]
        a["total_s"] += s["end"] - s["start"]
        a["calls"] += 1
        for key in ("states", "gflop", "repeat"):
            a[key] += s.get(key, 0)
    inside = descendants(spans, solve_root["id"])
    by_id = {s["id"]: s for s in spans}

    def under_solver(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"].startswith("solver."):
                return True
        return False

    solver_starts = [s["start"] for s in inside if s["name"].startswith("solver.")]
    resamples = [
        s["start"] for s in inside if s["name"] == "wiener.sample_ensemble" and under_solver(s)
    ]
    fits = agg["wiener.conditional_expectation"]
    out = {
        f"{name}.{field}": value for name, fields in agg.items() for field, value in fields.items()
    }
    out.update(
        {
            "wiener.conditional_expectation.repeat_share": fits["repeat"] / max(fits["calls"], 1),
            "solver.z_mb": outcome.z_mib,
            "solver.discarded_s": max(resamples) - min(solver_starts) if resamples else 0.0,
            "cli.write_s": agg["cli.run_solve"]["self_s"],
            "cli.output_bytes": outcome.output_bytes,
            "trace.coverage": sum(selfs[s["id"]] for s in inside) / solve_s,
        }
    )
    out.update({f"solver.{k}": v for k, v in counters(outcome.report).items()})
    return out


def measure_traced(workload, seed: int, seconds: float, out_dir: Path, spans_path: Path):
    """Per-layer metrics: untraced and traced rounds alternate on one ensemble of the run."""
    from tracer import Tracer

    run = Run(workload, out_dir)
    # warm-up: first-touch costs would otherwise land on the first pair; an
    # ensemble the solver declines is replaced by the next one
    seed0 = next((s for s in input_seeds(seed, 4) if run.round(s)), None)
    if seed0 is None:
        return run, {}
    tracer = Tracer()
    plain_s, traced_s, layers = [], [], []
    gc.collect()
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        done = run.round(seed0)
        gc.collect()
        first_span = len(tracer.spans)
        tracer.begin_round(pairs)
        try:
            traced = run.round(seed0, tracer)
        finally:
            tracer.end_round()
        gc.collect()
        pairs += 1
        if not (done and traced):
            continue
        plain_s.append(done[0])
        traced_s.append(traced[0])
        spans = tracer.spans[first_span:]
        root = next(s for s in spans if s["name"] == "bench.solve")
        layers.append(_round_layers(tracer.names, spans, root, traced[0], traced[1]))
    tracer.write(spans_path)
    if not layers:
        return run, {}
    metrics = {key: statistics.median(round_[key] for round_ in layers) for key in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    return run, metrics


# ---------------------------------------------------------------------------
# entry points


def run_one(args, spec: dict) -> int:
    # the benchmark's own modules import mildbsde, so they load only once src/ is checked
    src = ROOT / "src"
    if not (src / "mildbsde" / "__init__.py").is_file():
        print(f"bench: no mildbsde sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mildbsde
    from workloads import make_workloads

    if not Path(mildbsde.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: mildbsde was imported from {mildbsde.__file__}, not {src}", file=sys.stderr)
        return 2
    workloads = make_workloads(ROOT)
    if args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}; options: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    out_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans_path = OUT_ROOT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            run, values = measure_traced(workload, args.seed, args.seconds, out_dir, spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            run, values = measure(workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not values:
        print(f"bench: every solve of {workload.name} failed", file=sys.stderr)
        return 1
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    _print_summary(workload, run, metrics, args.trace)
    result = {
        "correct": run.incorrect == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _print_summary(workload, run: Run, metrics: dict, trace: bool) -> None:
    """Human-readable lines, including the figures the JSON result does not declare."""
    print(f"{workload.name}: {run.attempted} solves, {run.failed} failed, "
          f"{run.incorrect} of them with wrong outputs or a crash")
    if not trace:
        print(f"  solve_s: median of {len(run.solve_s)} solves, min {min(run.solve_s):.4f} s, "
              f"max {max(run.solve_s):.4f} s; setup_s: median of {len(run.setup_s)} set-ups; "
              f"residual: median over {len(run.first)} input ensembles")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':<44} {run.failed / run.attempted:>14.6g} 1")


def run_all(args, spec: dict) -> int:
    """Every workload, each in its own process so that its peak RSS is its own."""
    results, status = {}, 0
    for item in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", item["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{item['name']}: exit code {child.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        results[item["name"]] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
