"""Span tracer that wraps mildbsde's public functions from outside the library.

``Tracer.install()`` replaces every public function of the traced layers, and
the few methods named in ``METHODS``, with a wrapper that records a span:
name, start, end and the span that was open when it was called.  The
wrappers are patched into every ``mildbsde`` module that refers to the
function by name, since modules import each other's functions directly, and
``restore()`` puts the originals back.  Spans are kept in memory; all spans
of one round (one setup and one solve) carry the same round id.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import time
import weakref
from collections import defaultdict

import mildbsde.cli
import mildbsde.models
import mildbsde.solver
import mildbsde.spectral
import mildbsde.wiener

LAYERS = {
    "wiener": mildbsde.wiener,
    "spectral": mildbsde.spectral,
    "models": mildbsde.models,
    "solver": mildbsde.solver,
    "cli": mildbsde.cli,
}

# methods traced under the name of the call a reader knows them by
METHODS = {
    "wiener.design": (mildbsde.wiener.RegressionBasis, "design"),
    "models.f0": (mildbsde.solver.DissipativeDrift, "__call__"),
    "models.f1": (mildbsde.solver.BoundedDriver, "__call__"),
}


def _states(x) -> int:
    """Number of state vectors in a batch whose last axis is the state."""
    return x.size // x.shape[-1] if x.ndim else 1


def _public_functions(layer: str, module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # (ensemble serial, node) pairs already fitted in the current round
        self._fitted: set = set()
        self._ensembles: dict[int, tuple] = {}
        self._serials = itertools.count()
        self.names: set[str] = set()  # every span name a patched function records

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> dict:
        span = {
            "round": self.round,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def begin_round(self, round_id: int) -> None:
        self.round = round_id
        self._fitted.clear()
        self._ensembles.clear()
        self.install()

    def end_round(self) -> None:
        self.restore()
        self.round = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- counts taken at the boundaries -------------------------------------
    def _ensemble_serial(self, ensemble) -> int:
        key = id(ensemble)
        known = self._ensembles.get(key)
        if known is None or known[0]() is not ensemble:
            known = (weakref.ref(ensemble), next(self._serials))
            self._ensembles[key] = known
        return known[1]

    def _fit_attrs(self, args: dict, result) -> dict:
        targets = args["targets"]
        m = targets.shape[0]
        cols = 1 if targets.ndim == 1 else targets.shape[1]
        b = result.coef.shape[0]
        key = (self._ensemble_serial(args["ensemble"]), int(args["t_index"]))
        repeat = key in self._fitted
        self._fitted.add(key)
        # nominal dense counts: Gram 2MB^2, Phi'Y and Phi C 2MBc each, solve B^3/3
        flops = 2 * m * b * b + 4 * m * b * cols + b ** 3 / 3
        return {"gflop": flops / 1e9, "repeat": int(repeat)}

    def _attr_hooks(self) -> dict:
        return {
            "wiener.conditional_expectation": self._fit_attrs,
            "spectral.h_alpha_norm_batch": lambda a, r: {"states": _states(a["x"])},
            "models.f0": lambda a, r: {"states": _states(a["y"])},
            "models.f1": lambda a, r: {"states": _states(a["y"])},
        }

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn, name: str, hook):
        tracer = self
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if hook:
                    span.update(hook(signature.bind(*args, **kwargs).arguments, result))
                return result
            finally:
                tracer.close(span)

        return traced

    def install(self) -> None:
        hooks = self._attr_hooks()
        wrappers = {}
        for layer, module in LAYERS.items():
            for name, fn in _public_functions(layer, module):
                wrappers[fn] = self._wrap(fn, name, hooks.get(name))
                self.names.add(name)
        modules = [m for n, m in sys.modules.items() if n == "mildbsde" or n.startswith("mildbsde.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, hooks.get(name)))
            self.names.add(name)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    """Spans below root_id; spans are stored in opening order, so parents come first."""
    inside = {root_id}
    out = []
    for s in spans:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out
