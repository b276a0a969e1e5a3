"""Experiment grid runner, results persistence, report tables, self-checks.

A grid is the cross product (dataset x scenario x method x c x seed). Each
cell derives its own 64-bit seed by hashing the cell coordinates, so the
cell's data, corruption, initialization and shuffling never depend on
which other cells exist. Results append to a CSV (first line is a format
tag) as soon as each cell finishes; re-running the same grid skips cells
already present, which makes interrupted runs resumable and full reruns
byte-identical.

Per-cell protocol: build the source data (synthetic draw, or CSV rows
read once per grid run), carve out a held-out labeled test set, corrupt
the training side under the cell's scenario, train the cell's method,
then score hard predictions on the test set.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import risk
from .datasets import (
    SCENARIO_CC,
    SCENARIO_SS,
    SCENARIOS,
    LabeledDataset,
    gaussian_mixture,
    load_csv,
    train_test_split,
)
from .errors import FormatError, ParameterError, PuermError
from .model import ACTIVATIONS, grad_check, init
from .numerics import Rng, check_field_types, is_real
from .sampling import corrupt, unlabeled_positive_fraction_ss
from .trainer import METHODS, TrainerConfig, batch_objective, evaluate, save_trace, train

RESULTS_TAG = "# puerm-results-v1"
REPORT_METRICS = ("accuracy", "precision", "recall", "f1")


@dataclass
class DatasetSource:
    """One dataset entry of a grid: synthetic generator or CSV file."""

    name: str
    kind: str = "synthetic"
    path: str | None = None
    pi: float | None = None
    mu_pos: float = 2.0
    mu_neg: float = -2.0
    sd: float = 1.0
    dim: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("synthetic", "csv"):
            raise ParameterError(f"dataset kind must be synthetic or csv, got {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ParameterError(f"dataset {self.name!r}: csv kind needs a path")
        if self.pi is not None and not 0.0 < self.pi < 1.0:
            raise ParameterError(f"dataset {self.name!r}: pi must be in (0, 1)")
        if self.sd <= 0 or self.dim < 1:
            raise ParameterError(f"dataset {self.name!r}: sd must be > 0 and dim >= 1")
        if self.kind == "synthetic" and self.pi is None:
            self.pi = 0.5


@dataclass
class GridSpec:
    """Full experiment description; mirrors the JSON config layout."""

    datasets: list[DatasetSource]
    scenarios: list[str] = field(default_factory=lambda: list(SCENARIOS))
    methods: list[str] = field(default_factory=lambda: ["nnpu_ss", "nnpu_cc"])
    c_values: list[float] = field(default_factory=lambda: [0.1, 0.3, 0.5, 0.7, 0.9])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    n: int = 1000
    test_fraction: float = 0.2
    hidden_dims: list[int] = field(default_factory=lambda: [32, 32, 32, 32])
    activation: str = "relu"
    out: str = "results.csv"
    trace_dir: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if not self.datasets:
            raise ParameterError("grid needs at least one dataset")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ParameterError(f"dataset names must be unique, got {names}")
        for sc in self.scenarios:
            if sc not in SCENARIOS:
                raise ParameterError(f"unknown scenario {sc!r}; use one of {SCENARIOS}")
        for m in self.methods:
            if m not in METHODS:
                raise ParameterError(f"unknown method {m!r}; use one of {METHODS}")
        for c in self.c_values:
            if not is_real(c) or not 0.0 < c <= 1.0:
                raise ParameterError(f"c values must be numbers in (0, 1], got {c!r}")
            if c == 1.0 and SCENARIO_CC in self.scenarios:
                raise ParameterError(
                    "c=1 is not usable with the case-control scenario "
                    "(its unlabeled component would be empty)"
                )
        for name, low in (("seeds", 0), ("hidden_dims", 1)):
            values = getattr(self, name)
            # type() rather than isinstance(), which would let bools through
            if not isinstance(values, list) or not all(
                type(v) is int and v >= low for v in values
            ):
                raise ParameterError(f"{name} must be a list of integers >= {low}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"activation must be one of {ACTIVATIONS}")
        if self.n < 10:
            raise ParameterError(f"per-run budget n must be >= 10, got {self.n}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError("test_fraction must be in (0, 1)")


@dataclass
class ExperimentResult:
    """One grid cell's scores; the fields are the results file's columns."""

    dataset: str
    scenario: str
    method: str
    c: float
    seed: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    trace_path: str = ""

    def __post_init__(self):
        for name in REPORT_METRICS:
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ParameterError(f"{name} must be a percentage in [0, 100], got {v}")


RESULTS_COLUMNS = tuple(f.name for f in fields(ExperimentResult))


def cell_seed(seed: int, dataset: str, scenario: str, method: str, c: float) -> int:
    """Stable 64-bit seed for one grid cell.

    Hashing the coordinates (with c in shortest round-trip decimal form)
    means adding datasets, methods or c values never changes the seeds of
    existing cells.
    """
    key = f"cell-v1|{seed}|{dataset}|{scenario}|{method}|{repr(float(c))}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _load_source(source: DatasetSource) -> LabeledDataset:
    """A ``csv`` source's rows, with the source's ``pi`` when it sets one."""
    data = load_csv(source.path)
    if source.pi is not None:
        data = LabeledDataset(x=data.x, y=data.y, pi=source.pi)
    return data


def _build_source_data(
    source: DatasetSource, spec: GridSpec, rng: Rng, data: LabeledDataset | None
) -> tuple[LabeledDataset, LabeledDataset]:
    """(training pool, held-out test set) for one cell; ``data`` as in
    ``run_cell``."""
    if source.kind == "synthetic":
        pool_n = 2 * spec.n
        test_n = max(1, round(spec.n * spec.test_fraction / (1.0 - spec.test_fraction)))
        pool = gaussian_mixture(
            pool_n, source.pi, source.mu_pos, source.mu_neg, source.sd, source.dim, rng
        )
        test = gaussian_mixture(
            test_n, source.pi, source.mu_pos, source.mu_neg, source.sd, source.dim, rng
        )
        return pool, test
    if data is None:
        data = _load_source(source)
    return train_test_split(data, 1.0 - spec.test_fraction, rng)


def run_cell(
    source: DatasetSource, scenario: str, method: str, c: float, seed: int, spec: GridSpec,
    data: LabeledDataset | None = None,
) -> ExperimentResult:
    """Execute one grid cell end to end and return its scores.

    ``data`` is the rows of a ``csv`` source, loaded once by the caller
    for all its cells; when None the cell loads the file itself.
    """
    base = cell_seed(seed, source.name, scenario, method, c)
    root = Rng(base)
    pool, test = _build_source_data(source, spec, root.child(0), data)
    # a single-sample draw is without replacement, so it cannot exceed the pool
    budget = min(spec.n, pool.n) if scenario == SCENARIO_SS else spec.n
    pu = corrupt(pool, scenario, c, budget, root.child(1))
    model = init([pool.dim] + list(spec.hidden_dims) + [1], spec.activation, root.child(2))
    cfg = replace(spec.trainer, method=method, seed=base)
    model, traces = train(pu, cfg, model, test)
    metrics = evaluate(model, test)
    trace_path = ""
    if spec.trace_dir:
        os.makedirs(spec.trace_dir, exist_ok=True)
        fname = f"{source.name}_{scenario}_{method}_c{repr(float(c))}_s{seed}.csv"
        trace_path = os.path.join(spec.trace_dir, fname)
        save_trace(traces, trace_path)
    return ExperimentResult(
        source.name, scenario, method, float(c), int(seed), *metrics, trace_path
    )


def iter_cells(spec: GridSpec):
    """Every cell of the grid as (source, scenario, method, c, seed), in the
    order the results file lists them: seed varies fastest, dataset slowest."""
    return itertools.product(
        spec.datasets, spec.scenarios, spec.methods, spec.c_values, spec.seeds
    )


def _result_key(dataset: str, scenario: str, method: str, c: float, seed: int):
    return (dataset, scenario, method, repr(float(c)), str(int(seed)))


def _result_row(key: tuple, r: ExperimentResult | None, error: str = "") -> list[str]:
    """One results-file row. An error row (``r`` is None) has empty metric
    fields and the message in the trace_path column."""
    if r is None:
        return [*key, "", "", "", "", f"error: {error}"]
    return [
        *key,
        repr(float(r.accuracy)),
        repr(float(r.precision)),
        repr(float(r.recall)),
        repr(float(r.f1)),
        r.trace_path,
    ]


def load_results(path) -> tuple[list[ExperimentResult], int]:
    """(parsed result rows, number of error-marker rows) from a results CSV."""
    results: list[ExperimentResult] = []
    n_errors = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != RESULTS_TAG:
            raise FormatError(f"{path}: missing results format tag {RESULTS_TAG!r}")
        header = fh.readline().rstrip("\n")
        if header != ",".join(RESULTS_COLUMNS):
            raise FormatError(f"{path}: unexpected results header")
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num + 2}"  # after the tag and header
            if len(row) != len(RESULTS_COLUMNS):
                raise FormatError(f"{where}: malformed results row {row}")
            if row[5] == "":
                n_errors += 1
                continue
            try:
                values = [float(row[3]), int(row[4]), *map(float, row[5:9])]
                results.append(ExperimentResult(*row[:3], *values, row[9]))
            except (ValueError, ParameterError) as exc:
                raise FormatError(f"{where}: {exc}") from None
    return results, n_errors


def _drop_torn_tail(path) -> None:
    """Cut what a crash mid-write leaves at the end of a results file.

    A final row without its newline is dropped. A file holding no more
    than a (possibly partial) tag and header is emptied, so the run starts
    it afresh. Any other file is left alone for ``load_results`` to judge.
    """
    preamble = f"{RESULTS_TAG}\n{','.join(RESULTS_COLUMNS)}\n".encode()
    with open(path, "rb+") as fh:
        data = fh.read()
        if preamble.startswith(data):
            fh.truncate(0)
        elif data.startswith(preamble) and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def run_grid(spec: GridSpec, log=None) -> list[ExperimentResult]:
    """Run every cell of the grid, appending to ``spec.out`` as cells finish.

    Cells with a result row in the results file are skipped, so a rerun
    after an interruption picks up where it stopped; a row the
    interruption tore in half is dropped first and its cell run again. A
    cell that raises a ``PuermError`` or an ``OSError`` (an unwritable
    trace file, say) writes an error-marker row (empty metric fields,
    message in the trace_path column) and the run continues; an error
    writing the results file itself propagates. An error row does not
    mark its cell done: the next run retries the cell and appends its
    result after the error row, which stays as history.
    """
    if os.path.exists(spec.out):
        _drop_torn_tail(spec.out)
    fresh = not os.path.exists(spec.out) or os.path.getsize(spec.out) == 0
    done = set() if fresh else {
        _result_key(r.dataset, r.scenario, r.method, r.c, r.seed)
        for r in load_results(spec.out)[0]
    }
    results: list[ExperimentResult] = []
    loaded: dict[str, LabeledDataset] = {}  # csv sources by name, read once per run
    with open(spec.out, "a", encoding="utf-8", newline="") as fh:
        if fresh:
            fh.write(RESULTS_TAG + "\n")
            fh.write(",".join(RESULTS_COLUMNS) + "\n")
            fh.flush()
        writer = csv.writer(fh, lineterminator="\n")
        for source, scenario, method, c, seed in iter_cells(spec):
            key = _result_key(source.name, scenario, method, c, seed)
            if key in done:
                continue
            try:
                if source.kind == "csv" and source.name not in loaded:
                    loaded[source.name] = _load_source(source)
                r = run_cell(source, scenario, method, c, seed, spec, loaded.get(source.name))
            except (PuermError, OSError) as exc:
                writer.writerow(_result_row(key, None, str(exc)))
                fh.flush()
                if log:
                    print(f"cell {key} failed: {exc}", file=log, flush=True)
                continue
            results.append(r)
            writer.writerow(_result_row(key, r))
            fh.flush()
            if log:
                print(
                    f"done {source.name}/{scenario}/{method}"
                    f"/c={c}/seed={seed}: acc={r.accuracy:.2f}",
                    file=log,
                    flush=True,
                )
    return results


def emit_report(results_path, metric: str = "f1", scenario: str = "ss") -> str:
    """Per-c blocks of method means over seeds, datasets as columns.

    Each block carries one row per method plus a difference row per
    estimator family present in both variants: the scenario-appropriate
    variant's mean minus the cross-applied one's. Missing cells print
    blank and emit a warning on stderr.
    """
    if metric not in REPORT_METRICS:
        raise ParameterError(f"unknown metric {metric!r}")
    if scenario not in SCENARIOS:
        raise ParameterError(f"unknown scenario {scenario!r}")
    results, n_errors = load_results(results_path)
    if n_errors:
        print(f"warning: {n_errors} error rows skipped", file=sys.stderr)
    out = io.StringIO()
    title = f"{metric} (percent), scenario {scenario}, mean over seeds"
    print(title, file=out)
    print("=" * len(title), file=out)
    by_cell: dict[tuple, list[float]] = {}
    for r in results:
        if r.scenario == scenario:
            by_cell.setdefault((r.dataset, r.method, r.c), []).append(getattr(r, metric))
    if not by_cell:
        print("warning: no results for this scenario", file=sys.stderr)
    means = {cell: float(np.mean(values)) for cell, values in by_cell.items()}
    datasets = sorted({d for d, _, _ in by_cell})
    methods = sorted({m for _, m, _ in by_cell})
    other = SCENARIO_CC if scenario == SCENARIO_SS else SCENARIO_SS
    label_width = max(map(len, ["method", "delta_nnpu", "delta_upu", *methods]))
    col_width = max([8] + [len(d) for d in datasets]) + 2
    header = "method".ljust(label_width) + "".join(d.rjust(col_width) for d in datasets)
    for c in sorted({c for _, _, c in by_cell}):
        print(f"\nc = {repr(c)}", file=out)
        print(header, file=out)
        table = {m: [means.get((d, m, c)) for d in datasets] for m in methods}
        for family in ("nnpu", "upu"):
            matched = table.get(f"{family}_{scenario}")
            crossed = table.get(f"{family}_{other}")
            if matched is not None and crossed is not None:
                table[f"delta_{family}"] = [
                    None if a is None or b is None else a - b
                    for a, b in zip(matched, crossed)
                ]
        for name, values in table.items():
            cells = ""
            for d, v in zip(datasets, values):
                if v is None:
                    print(f"warning: no results for {d}/{name}/c={repr(c)}", file=sys.stderr)
                cells += ("" if v is None else f"{v:.2f}").rjust(col_width)
            print(name.ljust(label_width) + cells, file=out)
    return out.getvalue()


def default_grid_spec() -> GridSpec:
    """The built-in desk-scale grid: the two-Gaussian family, both
    scenarios, the truncation-based method pair, five c levels, ten seeds."""
    return GridSpec(datasets=[DatasetSource(name="gauss1d", kind="synthetic")])


def parse_grid_config(doc: dict, base_dir: str = ".") -> GridSpec:
    """Build a GridSpec from a parsed JSON document.

    Relative CSV paths are resolved against ``base_dir`` (normally the
    config file's directory). Unknown keys are rejected so typos fail
    loudly, and so is a value of the wrong type.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"grid config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(GridSpec)}
    if unknown:
        raise FormatError(f"unknown grid config keys: {sorted(unknown)}")
    if "datasets" not in doc:
        raise FormatError("grid config needs a 'datasets' list")
    try:
        sources = []
        for entry in doc["datasets"]:
            entry = dict(entry)
            path = entry.get("path")
            if path and not os.path.isabs(path):
                entry["path"] = os.path.join(base_dir, path)
            sources.append(DatasetSource(**entry))
        trainer = TrainerConfig(**doc.get("trainer", {}))
        kwargs = {k: v for k, v in doc.items() if k not in ("datasets", "trainer")}
        return GridSpec(datasets=sources, trainer=trainer, **kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad grid config: {exc}") from None


def load_grid_config(path) -> GridSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    try:
        return parse_grid_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def run_self_checks() -> list[tuple[str, bool, str]]:
    """Fast end-to-end oracle suite: (name, passed, detail) per check.

    Covers the estimator regrouping identity, the logistic margin
    identity, finite-difference gradient verification on both update
    branches, and the closed-form sampler proportions.
    """
    checks: list[tuple[str, bool, str]] = []
    rng = Rng(20240817)

    # Regrouped single-sample estimator equals the pooled form.
    worst = 0.0
    for i in range(100):
        r = rng.child(i)
        n_l = 1 + int(r.uniform(1)[0] * 63)
        n_u = int(r.uniform(1)[0] * 448)
        gl = r.normal(n_l, sd=3.0)
        gu = r.normal(n_u, sd=3.0)
        pi = 0.05 + 0.9 * r.uniform(1)[0]
        labeled = np.arange(n_l + n_u) < n_l
        comp = risk.risk_components(np.concatenate([gl, gu]), labeled, pi, SCENARIO_SS)
        a = comp.unbiased()[0]
        b = risk.empirical_risk_ss_regrouped(gl, gu, pi)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    checks.append(
        (
            "single-sample estimator regrouping identity",
            worst < 1e-12,
            f"max relative difference {worst:.3e} over 100 batches (tol 1e-12)",
        )
    )

    # Logistic margin identity l(s) - l(-s) = -s.
    margins = (rng.uniform(1000) - 0.5) * 100.0
    err = np.abs(
        risk.loss_logistic(margins) - risk.loss_logistic(-margins) + margins
    ).max()
    checks.append(
        (
            "logistic margin identity",
            err < 1e-10,
            f"max absolute error {err:.3e} over 1000 margins (tol 1e-10)",
        )
    )

    # Gradient checks, both branches, both activations.
    x = rng.normal(12, sd=1.5).reshape(6, 2)
    s = np.array([1, 1, -1, -1, -1, -1])
    for k, (activation, tol) in enumerate((("tanh", 1e-6), ("relu", 1e-4))):
        m = init([2, 8, 8, 1], activation, rng.child(1000 + k))
        if activation == "relu":
            for b in m.biases[:-1]:
                b += 0.05  # keep pre-activations away from the kink
        worst = 0.0
        for mode in SCENARIOS:
            for surrogate in (False, True):
                obj = batch_objective(x, s, 0.5, mode, risk.LOGISTIC, surrogate)
                worst = max(worst, grad_check(m, obj, h=1e-5))
        checks.append(
            (
                f"gradient check ({activation})",
                worst < tol,
                f"max relative error {worst:.3e} (tol {tol:g})",
            )
        )

    # Sampler proportions against the closed forms.
    n = 200000
    pool = gaussian_mixture(2 * n, 0.5, rng=rng.child(2000))
    for j, c in enumerate((0.1, 0.5, 0.9)):
        target = unlabeled_positive_fraction_ss(0.5, c)
        for k, (scenario, label, want, shown) in enumerate(
            (
                (SCENARIO_SS, "single-sample", target, f"{target:.5f}"),
                (SCENARIO_CC, "case-control", 0.5, "0.5"),
            )
        ):
            pu = corrupt(pool, scenario, c, n, rng.child(2100 + 100 * k + j))
            unl = pu.s == -1
            frac = float(np.mean(pu.y_true[unl] == 1))
            sigma = math.sqrt(want * (1.0 - want) / int(np.sum(unl)))
            checks.append(
                (
                    f"{label} unlabeled mix (c={c})",
                    abs(frac - want) <= 3.0 * sigma,
                    f"fraction {frac:.5f} vs {shown} (3 sigma = {3 * sigma:.5f})",
                )
            )
    return checks
