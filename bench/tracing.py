"""Span tracing of the puerm layers, installed from outside the package.

``install`` replaces every public function of the package modules, at each
module attribute where a caller looks it up, with a wrapper that records a
span (name, start, end, parent span, op id). Three ``Rng`` methods are
wrapped on the class, and the loss table ``puerm.risk.LOSSES`` gets
counting ``LossSpec``s. Private helpers are left alone, so their time
lands in the self time of the public function that calls them.

Spans stay in memory; ``write_spans`` saves them when the run ends and
``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import time

MODULES = (
    "cli",
    "harness",
    "trainer",
    "model",
    "risk",
    "sampling",
    "datasets",
    "numerics",
    "metrics",
)
RNG_METHODS = ("sample_without_replacement", "permutation", "normal")


def _rows(position):
    return lambda args, result: len(args[position])


def _result_rows(args, result):
    return result.n


def _file_bytes(position):
    return lambda args, result: os.path.getsize(args[position])


# Work counts taken at the span boundary: span name -> {count: f(args, result)}.
COUNTERS = {
    "model.forward": {"rows": _rows(1)},
    "model.backward": {"rows": _rows(1)},
    "numerics.as_matrix": {"cells": lambda args, result: result.size},
    "numerics.Rng.sample_without_replacement": {"draws": lambda a, r: len(r)},
    "sampling.scar_label": {"rows": _result_rows},
    "sampling.case_control_sample": {"rows": _result_rows},
    "datasets.save_csv": {"rows": lambda a, r: a[0].n, "bytes": _file_bytes(1)},
    "datasets.load_csv": {"rows": _result_rows, "bytes": _file_bytes(0)},
    "datasets.load_pu_csv": {"rows": _result_rows, "bytes": _file_bytes(0)},
}


class Tracer:
    """In-memory span store. Spans are lists [name, start_ns, end_ns, parent, op]."""

    def __init__(self, op_span: str | None = None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        # A span with this name starts a new op; otherwise every span opened
        # outside any other span does.
        self.op_span = op_span

    def open(self, name: str) -> int:
        if not self.stack or name == self.op_span:
            self.op += 1
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)


def _wrap(name: str, fn, tracer: Tracer):
    counters = [(f"{name}.{k}", f) for k, f in COUNTERS.get(name, {}).items()]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        for key, count in counters:
            tracer.add(key, count(args, result))
        return result

    return wrapper


def _counting_loss(spec, tracer: Tracer):
    import numpy as np

    def value(margin):
        tracer.add("risk.loss.value_calls", 1)
        tracer.add("risk.loss.elems", np.size(margin))
        return spec.value(margin)

    def derivative(margin):
        tracer.add("risk.loss.derivative_calls", 1)
        tracer.add("risk.loss.elems", np.size(margin))
        return spec.derivative(margin)

    return type(spec)(spec.kind, value, derivative)


def install(pkg, tracer: Tracer):
    """Wrap the package's public functions; returns a function that undoes it.

    ``pkg`` maps module short names (``MODULES``) to the imported modules;
    the package itself is under ``"puerm"``.
    """
    originals = {}
    for short in MODULES:
        module = pkg[short]
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                originals[obj] = _wrap(f"{short}.{attr}", obj, tracer)
    undo = []
    for module in [pkg["puerm"]] + [pkg[s] for s in MODULES]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in originals:
                setattr(module, attr, originals[obj])
                undo.append((module, attr, obj))
    rng_cls = pkg["numerics"].Rng
    for attr in RNG_METHODS:
        obj = rng_cls.__dict__[attr]
        setattr(rng_cls, attr, _wrap(f"numerics.Rng.{attr}", obj, tracer))
        undo.append((rng_cls, attr, obj))
    losses = pkg["risk"].LOSSES
    saved_losses = dict(losses)
    for kind, spec in saved_losses.items():
        losses[kind] = _counting_loss(spec, tracer)

    def restore():
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)
        losses.clear()
        losses.update(saved_losses)

    return restore


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("name", "start_ns", "end_ns", "parent", "op"))
        w.writerows(tracer.spans)


def _per_name(tracer: Tracer):
    """name -> [calls, inclusive_ns, self_ns]; plus train's batch count."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, list[int]] = {}
    batches = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[i]
        if (
            name == "risk.risk_components"
            and parent >= 0
            and spans[parent][0] == "trainer.train"
        ):
            batches += 1
    return stats, batches


# Per-layer metrics, in report order. "calls", "self_s" and "us_per_call"
# come from spans; the other suffixes from COUNTERS.
SPAN_METRICS = (
    ("trainer.train", ("calls", "self_s")),
    ("model.forward", ("calls", "rows", "self_s", "us_per_call")),
    ("model.backward", ("calls", "rows", "self_s", "us_per_call")),
    ("model.init", ("self_s",)),
    ("model.grad_check", ("self_s",)),
    ("risk.risk_components", ("calls", "self_s")),
    ("risk.nnpu_risk", ("calls", "self_s")),
    ("numerics.as_matrix", ("calls", "cells", "self_s")),
    ("numerics.Rng.sample_without_replacement", ("calls", "draws", "self_s")),
    ("numerics.Rng.permutation", ("self_s",)),
    ("numerics.Rng.normal", ("self_s",)),
    ("sampling.scar_label", ("rows", "self_s")),
    ("sampling.case_control_sample", ("rows", "self_s")),
    ("datasets.save_csv", ("rows", "bytes", "self_s")),
    ("datasets.load_csv", ("rows", "bytes", "self_s")),
    ("datasets.load_pu_csv", ("rows", "bytes", "self_s")),
    ("datasets.gaussian_mixture", ("self_s",)),
    ("trainer.classify_scores", ("self_s",)),
    ("trainer.save_trace", ("calls", "self_s")),
    ("metrics.confusion", ("self_s",)),
    ("metrics.scores", ("self_s",)),
    ("harness.run_cell", ("calls", "self_s")),
    ("harness.run_grid", ("self_s",)),
    ("harness.run_self_checks", ("self_s",)),
    ("cli.cli_dispatch", ("self_s",)),
)
def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("self_s"):
        return "s"
    if last in ("us_per_call", "self_us_per_batch"):
        return "us"
    return {"bytes": "B", "overhead_frac": "ratio"}.get(last, "count")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer (name, unit) a traced run reports."""
    names = list(layer_metrics(Tracer())) + ["trace.overhead_frac"]
    return [(name, _unit(name)) for name in names]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the recorded spans and counts (no overhead)."""
    stats, batches = _per_name(tracer)
    out: dict[str, float] = {}
    for name, fields in SPAN_METRICS:
        calls, incl_ns, self_ns = stats.get(name, (0, 0, 0))
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = calls
            elif f == "self_s":
                out[f"{name}.self_s"] = self_ns / 1e9
            elif f == "us_per_call":
                out[f"{name}.us_per_call"] = incl_ns / 1e3 / calls if calls else 0.0
            else:
                out[f"{name}.{f}"] = tracer.counts.get(f"{name}.{f}", 0)
        if name == "trainer.train":
            out["trainer.train.batches"] = batches
            out["trainer.train.self_us_per_batch"] = (
                self_ns / 1e3 / batches if batches else 0.0
            )
    for key in ("value_calls", "derivative_calls", "elems"):
        total = tracer.counts.get(f"risk.loss.{key}", 0)
        out[f"risk.loss.{key}_per_batch"] = total / batches if batches else 0.0
    for m in MODULES:
        out[f"layer.{m}.self_s"] = sum(
            s[2] for name, s in stats.items() if name.split(".", 1)[0] == m
        ) / 1e9
    out["trace.spans"] = len(tracer.spans)
    return out
