"""The traced benchmark run reads per-layer metrics by span name; keep those names alive."""
import importlib.util
import json
from pathlib import Path

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
