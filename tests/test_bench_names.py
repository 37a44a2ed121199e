"""The traced benchmark run reads per-layer metrics by span name; keep those names alive."""
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import mildbsde

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
