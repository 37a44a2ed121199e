"""The benchmark reads per-layer metrics by span name and report.json by key; keep both alive."""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import mildbsde
from mildbsde import cli, config

REPO = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_layer_metric_names_a_traced_span():
    # a metric "layer.function.field" is read from the spans of "layer.function";
    # renaming that function in the library would make the traced run fail
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    spans = {".".join(parts[:2]) for parts in (m["name"].split(".") for m in declared)
             if len(parts) == 3}
    assert "wiener.martingale_z_estimate" in spans
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert spans <= tracer.names, sorted(spans - tracer.names)


@pytest.mark.parametrize(
    "layer", ["cli", "config", "gronwall", "models", "solver", "spectral", "wiener"]
)
def test_every_exported_name_resolves(layer):
    # the tracer wraps each name in __all__ (each public name where a module has
    # none); the package re-exports only names that their module lists
    module = importlib.import_module(f"mildbsde.{layer}")
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    assert [n for n in names if not hasattr(module, n)] == []
    reexported = {n for n, obj in vars(mildbsde).items()
                  if getattr(obj, "__module__", None) == module.__name__}
    assert reexported <= set(names), sorted(reexported - set(names))


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, preset, steps", [("spin-chain", "spin-chain", 40),
                            ("reaction-diffusion", "reaction-diffusion-1d", 20)]
)
def test_report_json_reads_through_bench_workloads(tmp_path, name, preset, steps):
    # the benchmark reads report.json and manifest.json by key; a change to
    # either schema must not leave it a KeyError
    cfg = tmp_path / "small.ini"
    out = tmp_path / "out"
    cfg.write_text(
        f"[experiment]\npreset = {preset}\nseed = 5\nout = {out}\n\n"
        f"[discretization]\npaths = 400\nsteps = {steps}\n\n[validation]\ntrials = 400\n"
    )
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    workloads = load_workloads()
    counts = workloads.counters(report)
    assert counts["windows"] == len(report["windows"]) > 0
    assert counts["rank_deficient"] == sum(w["rank_deficient"] for w in report["windows"])
    workload = workloads.make_workloads(REPO)[name]
    outcome = workload.inspect(config.load_config(str(cfg)), None, out, seconds=1.0)
    assert all(isinstance(m, str) for m in outcome.misses)
    assert outcome.z_mib > 0 and outcome.output_bytes > 0
