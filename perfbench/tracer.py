"""Span tracing of coherence_engine from outside the package.

Every public function of the package modules is wrapped, in its home module
and in every coherence_engine namespace that bound it at import time (for
example ``from .numerics import integrate_ode`` in ``dynamics``).  Public
methods are patched on their class.  A wrapped call records a span (name,
start, end, parent) while an op is being traced; when the op ends, self
times are computed from its spans: a span's duration minus the time its
child spans cover.  ``uninstall`` restores every original binding.

Counts and times are reported per op.  Runs are made of whole passes over
the same inputs, so the per-op counts of a seed are exact and repeat.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numerics", "bloch", "bath", "thermo", "dynamics", "neardegen", "protocols", "cli")

# Metric prefix -> span name, for every span whose calls and self time are reported.
TIMED = {
    "numerics.integrate_ode": "numerics.integrate_ode",
    "numerics.integrate_1d": "numerics.integrate_1d",
    "numerics.lambert_w_principal": "numerics.lambert_w_principal",
    "dynamics.evolve": "dynamics.evolve",
    "dynamics.evolve_trajectory": "dynamics.evolve_trajectory",
    "dynamics.steady_state": "dynamics.steady_state",
    "dynamics.trajectory_rows": "dynamics.trajectory_rows",
    "neardegen.evolve_neardegenerate": "neardegen.evolve_neardegenerate",
    "bloch.validate": "bloch.DensityMatrix.validate",
    "thermo.l1_coherence": "thermo.l1_coherence",
    "thermo.fed": "thermo.fed",
    "thermo.fed_subspace": "thermo.fed_subspace",
    "thermo.trace_distance": "thermo.trace_distance",
    "protocols.run_protocol1": "protocols.run_protocol1",
    "protocols.protocol1_round": "protocols.protocol1_round",
    "protocols.protocol2": "protocols.protocol2",
}
DYNAMICS_EVOLVERS = ("dynamics.evolve", "dynamics.evolve_trajectory")


class Tracer:
    """Wraps the package's public calls and aggregates their spans per op."""

    def __init__(self):
        self.recording = False
        self.ops = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        self._patches = []
        self._spans = []
        self._stack = []
        self._raised = {}
        self._series = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("coherence_engine")
        modules = {layer: importlib.import_module(f"coherence_engine.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, name, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        density = modules["bloch"].DensityMatrix
        self._patch(density, "__post_init__", self._counter("built", density.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", member.__func__)))

    def _counter(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        hook = self._hooks(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer._spans)
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                seen = tracer._raised.setdefault(id(exc), set())
                if layer not in seen:
                    seen.add(layer)
                    tracer.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def _hooks(self, name: str, fn):
        """Counters read from a call's arguments or result, or None."""
        counts = self.counts
        spans = self._spans
        if name == "numerics.integrate_ode":

            def hook(span, args, kwargs, result):
                counts["ode_steps"] += len(result.t)
                if span[3] >= 0 and spans[span[3]][0] in DYNAMICS_EVOLVERS:
                    counts["dynamics_steps"] += len(result.t)

            return hook
        if name == "dynamics.evolve_trajectory":
            return lambda span, args, kwargs, result: counts.update(dynamics_samples=len(result))
        if name == "dynamics.evolve":
            return lambda span, args, kwargs, result: counts.update(dynamics_samples=1)
        if name == "neardegen.evolve_neardegenerate":
            signature = inspect.signature(fn)
            series = self._series

            def hook(span, args, kwargs, result):
                series.append(float(signature.bind(*args, **kwargs).arguments["t"]))

            return hook
        return None

    # -- ops ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Trace the calls made inside the block as one op."""
        self._spans.clear()
        self._stack.clear()
        self._raised.clear()
        self._series.clear()
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self.ops += 1
            self._fold()

    def _fold(self) -> None:
        covered = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent), child in zip(self._spans, covered):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child
        if self._series:
            self.counts["series_useful_t"] += max(self._series)
            self.counts["series_total_t"] += sum(self._series)

    # -- metrics ------------------------------------------------------

    def metrics(self) -> dict:
        """Per-op layer metrics, as {name: (value, unit)}."""
        ops = max(self.ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for prefix, span in TIMED.items():
            out[f"{prefix}.calls"] = (self.calls[span] / ops, "1/op")
            out[f"{prefix}.self_s"] = (self.self_s[span] / ops, "s/op")
        out["numerics.integrate_ode.steps"] = (self.counts["ode_steps"] / ops, "1/op")
        out["dynamics.ode_steps_per_sample"] = (
            ratio(self.counts["dynamics_steps"], self.counts["dynamics_samples"]), "1")
        out["neardegen.useful_time_frac"] = (
            ratio(self.counts["series_useful_t"], self.counts["series_total_t"]), "1")
        out["bloch.DensityMatrix.built"] = (self.counts["built"] / ops, "1/op")
        out["bath.rates_at.calls"] = (self.calls["bath.rates_at"] / ops, "1/op")
        out["protocols.rounds_per_run"] = (
            ratio(self.calls["protocols.protocol1_round"], self.calls["protocols.run_protocol1"]),
            "1")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer] / ops, "1/op")
        return out
