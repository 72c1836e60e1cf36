"""Per-layer spans recorded from outside the program.

``experiments`` imports its callees by name, so the tracer swaps those
names inside the consuming modules for wrappers that record one span per
call: name, start, end, parent span and the id of the entry-point call
it belongs to.  The minimum-phase guard in ``estimators`` imports
``wilson_factorize`` lazily from ``spectralgc.wilson``, so wrapping that
module attribute catches the swaps.  Spans stay in memory and are
written once, at the end of a run.

A span's self time is its duration minus the durations of its direct
children, so the self times of one call's spans add up to the call's
duration; ``PER_LAYER`` partitions them into the reported metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from spectralgc.errors import ConfigError, NumericalError

LAYERS = ("simulate", "models", "estimators", "welch", "wilson", "connectivity", "experiments")

#: every per-layer metric, with its unit, in the order the benchmark prints them
PER_LAYER = [
    ("simulate.busy_s", "s"),
    ("simulate.calls", "count"),
    ("simulate.panel_csv.busy_s", "s"),
    ("simulate.panel_csv.bytes", "B"),
    ("models.roots.busy_s", "s"),
    ("models.roots.calls", "count"),
    ("models.transfer.busy_s", "s"),
    ("models.transfer.calls", "count"),
    ("estimators.fit_var.busy_s", "s"),
    ("estimators.fit_var.calls", "count"),
    ("estimators.fit_vma.busy_s", "s"),
    ("estimators.fit_vma.calls", "count"),
    ("estimators.fit_varma.busy_s", "s"),
    ("estimators.fit_varma.calls", "count"),
    ("estimators.lattice_stages", "count"),
    ("estimators.unstable_warnings", "count"),
    ("welch.busy_s", "s"),
    ("welch.calls", "count"),
    ("wilson.busy_s", "s"),
    ("wilson.calls", "count"),
    ("wilson.iterations", "count"),
    ("wilson.residual_max", "ratio"),
    ("wilson.minphase_calls", "count"),
    ("wilson.minphase_busy_s", "s"),
    ("wilson.minphase_ratio", "ratio"),
    ("connectivity.measures.busy_s", "s"),
    ("connectivity.measures.calls", "count"),
    ("connectivity.field_csv.busy_s", "s"),
    ("connectivity.field_csv.bytes", "B"),
    ("experiments.self_s", "s"),
    *[(f"{layer}.errors", "count") for layer in LAYERS],
    ("trace.overhead_frac", "ratio"),
]

#: the ``.busy_s``/``self_s`` metrics, which partition a traced call's wall time
BUSY_METRICS = [name for name, unit in PER_LAYER if unit == "s"]

ROOT_SPAN = "experiments"


def _lattice_stages(param):
    def hook(span, bound, result):
        span.info["stages"] = bound.arguments[param]
    return hook


def _file_bytes(param):
    def hook(span, bound, result):
        span.info["bytes"] = os.path.getsize(bound.arguments[param])
    return hook


def _wilson_health(span, bound, result):
    span.info["iterations"] = result.diagnostics["iterations"]
    span.info["residual"] = result.diagnostics["residual"]


#: (module, attribute, span name, hook): every place a layer's public function is
#: looked up at call time by the code the entry points run
TARGETS = [
    ("spectralgc.experiments", "simulate", "simulate", None),
    ("spectralgc.experiments", "load_panel_csv", "simulate.panel_csv", _file_bytes("path")),
    ("spectralgc.simulate", "ar_root_report", "models.roots", None),
    ("spectralgc.estimators", "ar_root_report", "models.roots", None),
    ("spectralgc.estimators", "ma_root_report", "models.roots", None),
    ("spectralgc.experiments", "ma_root_report", "models.roots", None),
    ("spectralgc.experiments", "transfer_function", "models.transfer", None),
    ("spectralgc.experiments", "fit_var", "estimators.fit_var", _lattice_stages("p_max")),
    ("spectralgc.experiments", "fit_vma", "estimators.fit_vma", _lattice_stages("long_ar_order")),
    ("spectralgc.experiments", "fit_varma", "estimators.fit_varma", _lattice_stages("long_ar_order")),
    ("spectralgc.experiments", "welch_cross_spectrum", "welch", None),
    ("spectralgc.experiments", "wilson_factorize", "wilson", _wilson_health),
    ("spectralgc.wilson", "wilson_factorize", "wilson", _wilson_health),
    ("spectralgc.experiments", "total_pdc", "connectivity.measures", None),
    ("spectralgc.experiments", "total_dtf", "connectivity.measures", None),
    ("spectralgc.experiments", "mse_vs_reference", "connectivity.measures", None),
    ("spectralgc.experiments", "save_field_csv", "connectivity.field_csv", _file_bytes("path")),
]


@dataclass
class Span:
    id: int
    name: str
    call_id: int
    parent: Span | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "call": self.call_id,
            "parent": None if self.parent is None else self.parent.id,
            "start": self.start, "end": self.end, "error": self.error, "info": self.info,
        }


class Tracer:
    """Records spans while active (``with tracer:``); ``layers=False`` keeps only call spans."""

    def __init__(self, layers: bool = True):
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._n_calls = 0
        self._unstable_warnings = 0
        self._restore = []

    def __enter__(self):
        if self.layers:
            for module_name, attr, span_name, hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name, hook))
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self._n_calls, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def _wrap(self, original, span_name, hook):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            except (ConfigError, NumericalError) as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound, result)
            return result

        return traced

    def call(self, entry, spec):
        """Run one entry-point call as a root span; warnings are counted, not shown."""
        self._n_calls += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return self._wrap(entry, ROOT_SPAN, None)(spec)
            finally:
                self._unstable_warnings += sum("not stable" in str(w.message) for w in caught)

    def per_layer(self) -> dict:
        """Per-call means of busy time and counts.

        ``*.errors`` are totals over the run and ``wilson.residual_max`` is
        a maximum; ``trace.overhead_frac`` needs untraced calls and is left
        to the caller.
        """
        busy, calls, total, errors = defaultdict(float), Counter(), Counter(), Counter()
        residual_max = 0.0
        for span in self.spans:
            name = span.name
            if name == "wilson" and span.parent is not None and span.parent.name.startswith("estimators."):
                name = "wilson.minphase"
            busy[name] += span.self_s
            calls[name] += 1
            if span.error is not None:
                errors[span.name.split(".")[0]] += 1
            total["stages"] += span.info.get("stages", 0)
            total[name] += span.info.get("bytes", 0)
            if name == "wilson":
                total["iterations"] += span.info["iterations"]
                residual_max = max(residual_max, span.info["residual"])

        n_calls = max(1, self._n_calls)
        out = {}
        for name in ("simulate", "models.roots", "models.transfer", "estimators.fit_var",
                     "estimators.fit_vma", "estimators.fit_varma", "welch", "wilson",
                     "connectivity.measures"):
            out[f"{name}.busy_s"] = busy[name] / n_calls
            out[f"{name}.calls"] = calls[name] / n_calls
        for name in ("simulate.panel_csv", "connectivity.field_csv"):
            out[f"{name}.busy_s"] = busy[name] / n_calls
            out[f"{name}.bytes"] = total[name] / n_calls
        out["estimators.lattice_stages"] = total["stages"] / n_calls
        out["estimators.unstable_warnings"] = self._unstable_warnings / n_calls
        out["wilson.iterations"] = total["iterations"] / n_calls
        out["wilson.residual_max"] = residual_max
        out["wilson.minphase_calls"] = calls["wilson.minphase"] / n_calls
        out["wilson.minphase_busy_s"] = busy["wilson.minphase"] / n_calls
        fits = calls["estimators.fit_vma"] + calls["estimators.fit_varma"]
        out["wilson.minphase_ratio"] = calls["wilson.minphase"] / fits if fits else 0.0
        out["experiments.self_s"] = busy[ROOT_SPAN] / n_calls
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([span.to_dict() for span in self.spans], fh)
            fh.write("\n")
