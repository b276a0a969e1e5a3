"""Experiment grid runner, results persistence, the summary report, self-checks.

A grid is the cross product (dataset x scenario x method x c x seed), and
one ``Cell`` is one point of it. A cell's key is its five coordinates as
text (``_result_key``, the only code that formats and checks them, for a
grid's cells and a results file's rows alike); the cell's 64-bit seed, its
trace file name, the resume check and its results row all read that key.
The seed hashes it, so the cell's data, corruption, initialization and
shuffling never depend on which other cells exist.
Results append to a CSV (first line is a format tag) as soon as each cell
finishes; re-running the same grid skips cells already present, which
makes interrupted runs resumable and full reruns byte-identical.

A grid's cells and the self-checks run on every usable CPU through
``spread._spread``, whose outcomes come back in task order, so the
process count changes no output byte.

Per-cell protocol: build the source data (synthetic draw, or CSV rows
read once per process of a grid run), carve out a held-out labeled test
set, corrupt the training side under the cell's scenario, train the
cell's method, then score hard predictions on the test set.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import risk
from .datasets import (
    SCENARIO_CC,
    SCENARIO_SS,
    SCENARIOS,
    LabeledDataset,
    _check_scenario,
    _open_csv,
    _open_text,
    _signs,
    gaussian_mixture,
    load_csv,
    train_test_split,
)
from .errors import FormatError, ParameterError, PuermError
from .model import _check_network, grad_check, init
from .numerics import Rng, _check_count, _check_pi, _check_sd, check_field_types, is_real
from .sampling import CaseControlConfig, ScarConfig, corrupt, unlabeled_positive_fraction_ss
from .spread import _spread
from .trainer import TrainerConfig, batch_objective, evaluate, save_trace, train

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
        _check_dataset_name(self.name)
        try:
            if self.kind not in ("synthetic", "csv"):
                raise ParameterError(f"kind must be synthetic or csv, got {self.kind!r}")
            # a csv source's features come from its file, a synthetic one's from
            # the generator, so a field the kind would not read is refused
            unread = ("path",) if self.kind == "synthetic" else ("mu_pos", "mu_neg", "sd", "dim")
            for f in fields(self):
                if f.name in unread and getattr(self, f.name) != f.default:
                    raise ParameterError(f"a {self.kind} source reads no {f.name}")
            if self.kind == "csv" and not self.path:
                raise ParameterError("csv kind needs a path")
            if self.kind == "synthetic" and self.pi is None:
                self.pi = 0.5
            if self.pi is not None:
                _check_pi(self.pi)
            _check_sd(self.sd)
            _check_count("dim", self.dim, low=1)
        except ParameterError as exc:
            raise ParameterError(f"dataset {self.name!r}: {exc}") from None


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
        # a cell's coordinates are checked by _result_key, its other rules by their owners
        for cell in iter_cells(self):
            _result_key(cell)
        _check_network([1, *self.hidden_dims, 1], self.activation)
        if self.n < 10:
            raise ParameterError(f"per-run budget n must be >= 10, got {self.n}")
        # every cell's PU sample has at most n rows
        if self.trainer.batch_size > self.n:
            raise ParameterError(
                f"trainer batch_size {self.trainer.batch_size} exceeds the per-run budget "
                f"n={self.n}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError("test_fraction must be in (0, 1)")
        # each cell's sampler config, a case-control one where its source's pi is known
        for source, scenario, c in itertools.product(self.datasets, self.scenarios, self.c_values):
            if scenario == SCENARIO_SS:
                ScarConfig(c=c, n=self.n)
            elif source.pi is not None:
                CaseControlConfig(c=c, pi=source.pi, n=self.n)
        # an empty axis would run no cells, a repeated value the same cells
        # twice; a dataset counts by its name, which is part of its cells' keys
        axes = {"datasets": [d.name for d in self.datasets], "scenarios": self.scenarios,
                "methods": self.methods, "c_values": self.c_values, "seeds": self.seeds}
        for name, values in axes.items():
            if not values:
                raise ParameterError(f"grid needs at least one value in {name}")
            if len(set(values)) != len(values):
                raise ParameterError(f"{name} must not repeat a value, got {values}")


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
        _result_key(self)  # a row obeys the rules of the cell it records
        for name in REPORT_METRICS:
            v = getattr(self, name)
            if not 0.0 <= v <= 100.0:
                raise ParameterError(f"{name} must be a percentage in [0, 100], got {v}")

    def row(self) -> list[str]:
        """This result as a results-file row."""
        r = self  # fields spelled out: bench/test_bench.py corrupts the accuracy one
        return [*_result_key(r), repr(float(r.accuracy)), repr(float(r.precision)),
                repr(float(r.recall)), repr(float(r.f1)), r.trace_path]


RESULTS_COLUMNS = tuple(f.name for f in fields(ExperimentResult))


class Cell(NamedTuple):
    """One grid cell: a dataset source and the cell's other four coordinates."""

    source: DatasetSource
    scenario: str
    method: str
    c: float
    seed: int

    @property
    def dataset(self) -> str:
        return self.source.name


def _check_dataset_name(name: str) -> None:
    """A dataset name is part of each of its cells' trace file names."""
    if name in ("", ".", "..") or any(ch in name for ch in ("/", "\0", os.sep, os.altsep) if ch):
        raise ParameterError(
            f"dataset name {name!r} must not be empty, '.' or '..', "
            "or hold a path separator or NUL"
        )


def _result_key(x: Cell | ExperimentResult) -> tuple[str, str, str, str, str]:
    """The key of a cell or result: (dataset, scenario, method, c, seed) as
    the results file writes them, c in shortest round-trip decimal form. The
    one check of these coordinates, for a grid's cells and a results
    file's rows; a source checks its name alone with ``_check_dataset_name``."""
    _check_dataset_name(x.dataset)
    scenario, c = _check_scenario(x.scenario), x.c
    TrainerConfig(method=x.method)  # the owner of the method rule
    # c = 1 leaves a case-control cell no unlabeled rows, whatever its pi
    if not is_real(c) or not 0.0 < c <= 1.0 or c == 1.0 and scenario == SCENARIO_CC:
        raise ParameterError(f"c must be a number in (0, 1], below 1 under scenario cc, got {c!r}")
    return (x.dataset, scenario, x.method, repr(float(c)), str(_check_count("seed", x.seed)))


def cell_seed(cell: Cell) -> int:
    """Stable 64-bit seed for one grid cell.

    Hashing the cell's key means adding datasets, methods or c values
    never changes the seeds of existing cells.
    """
    dataset, scenario, method, c, seed = _result_key(cell)
    key = f"cell-v1|{seed}|{dataset}|{scenario}|{method}|{c}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _build_source_data(
    source: DatasetSource, spec: GridSpec, rng: Rng, load
) -> tuple[LabeledDataset, LabeledDataset]:
    """(training pool, held-out test set) for one cell; ``load`` as in ``run_cell``."""
    if source.kind == "synthetic":
        test_n = max(1, round(spec.n * spec.test_fraction / (1.0 - spec.test_fraction)))
        args = (source.pi, source.mu_pos, source.mu_neg, source.sd, source.dim, rng)
        return gaussian_mixture(2 * spec.n, *args), gaussian_mixture(test_n, *args)
    return train_test_split(load(source.path, source.pi), 1.0 - spec.test_fraction, rng)


def run_cell(cell: Cell, spec: GridSpec, load=load_csv) -> ExperimentResult:
    """Execute one grid cell end to end and return its scores.

    ``load(path, pi)`` reads the rows of a ``csv`` source; ``run_grid``
    passes a cached ``load_csv``, so each process of a run reads a file once.
    """
    source, scenario, method, c, seed = cell
    base = cell_seed(cell)
    root = Rng(base)
    pool, test = _build_source_data(source, spec, root.child(0), load)
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
        fname = "{}_{}_{}_c{}_s{}.csv".format(*_result_key(cell))
        trace_path = os.path.join(spec.trace_dir, fname)
        save_trace(traces, trace_path)
    return ExperimentResult(
        source.name, scenario, method, float(c), int(seed), *metrics, trace_path
    )


def iter_cells(spec: GridSpec):
    """Every ``Cell`` of the grid, in the order the results file lists them:
    seed varies fastest, dataset slowest."""
    return itertools.starmap(Cell, itertools.product(
        spec.datasets, spec.scenarios, spec.methods, spec.c_values, spec.seeds
    ))


def load_results(path) -> tuple[list[ExperimentResult], int]:
    """(parsed result rows, number of error-marker rows) from a results CSV;
    a row that breaks a rule of the cell it records is a FormatError."""
    results: list[ExperimentResult] = []
    n_errors = 0
    with _open_csv(path, skip=2) as (fh, reader):  # the reader starts past the tag and header
        first = fh.readline().rstrip("\n")
        if first != RESULTS_TAG:
            raise FormatError(f"{path}: missing results format tag {RESULTS_TAG!r}")
        header = fh.readline().rstrip("\n")
        if header != ",".join(RESULTS_COLUMNS):
            raise FormatError(f"{path}: unexpected results header")
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num + 2}"  # after the tag and header
            if len(row) != len(RESULTS_COLUMNS):
                raise FormatError(f"{where}: malformed results row {row}")
            dataset, scenario, method, c, seed, *metrics, trace_path = row
            if metrics[0] == "":
                n_errors += 1
                continue
            try:
                values = [float(c), int(seed), *map(float, metrics)]
                results.append(ExperimentResult(dataset, scenario, method, *values, trace_path))
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

    The cells to run are spread over one process per usable CPU, this one
    included, and never more processes than cells (``_spread``); one
    process forks none. Each process reads a csv source once. Rows and
    ``log`` lines are written here in cell order, so every output byte is
    the same for any number of processes. A worker process that dies
    raises ``PuermError``; the rows before the cell it left unfinished
    stay, so a rerun resumes from that cell.

    The directory of ``spec.out`` is created if missing. One run writes a
    results file at a time: a run holds the lock file ``<out>.lock``
    (``O_CREAT | O_EXCL``) until it ends, and a run that finds it, such as
    one left by a killed run, raises ``PuermError``.
    """
    if os.path.dirname(spec.out):  # os.makedirs("") raises
        os.makedirs(os.path.dirname(spec.out), exist_ok=True)
    lock = f"{spec.out}.lock"
    try:
        os.close(os.open(lock, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except FileExistsError:
        raise PuermError(
            f"{lock} exists: another run is writing {spec.out}. If no other run "
            "is, a killed run left the lock; delete it and run again"
        ) from None
    try:
        if os.path.exists(spec.out):
            _drop_torn_tail(spec.out)
        fresh = not os.path.exists(spec.out) or os.path.getsize(spec.out) == 0
        done = set() if fresh else {_result_key(r) for r in load_results(spec.out)[0]}
        cells = [cell for cell in iter_cells(spec) if _result_key(cell) not in done]
        load = functools.cache(load_csv)  # a failed read is not cached, so each cell retries
        tasks = [(f"cell {_result_key(cell)}", functools.partial(run_cell, cell, spec, load))
                 for cell in cells]
        results: list[ExperimentResult] = []
        outcomes = _spread(tasks, catch=(PuermError, OSError))  # forks at the first read
        with open(spec.out, "a", encoding="utf-8", newline="") as fh, contextlib.closing(outcomes):
            if fresh:
                fh.write(RESULTS_TAG + "\n")
                fh.write(",".join(RESULTS_COLUMNS) + "\n")
                fh.flush()
            writer = csv.writer(fh, lineterminator="\n")
            for cell, r in zip(cells, outcomes):
                key = _result_key(cell)
                if isinstance(r, Exception):
                    writer.writerow([*key, "", "", "", "", f"error: {r}"])
                    fh.flush()
                    if log:
                        print(f"cell {key} failed: {r}", file=log, flush=True)
                    continue
                results.append(r)
                writer.writerow(r.row())
                fh.flush()
                if log:
                    print(
                        f"done {cell.dataset}/{cell.scenario}/{cell.method}"
                        f"/c={cell.c}/seed={cell.seed}: acc={r.accuracy:.2f}",
                        file=log,
                        flush=True,
                    )
        return results
    finally:
        os.unlink(lock)


def summarize(results, metric: str) -> list[dict]:
    """One row per (scenario, dataset, c, family) of ``results``, in that order.

    A family (``nnpu`` or ``upu``) has a matched variant, built for the
    row's scenario (``nnpu_ss`` on ``ss`` data), and a mismatched one. A row
    holds each variant's seed count ``n_*`` and mean ``metric``, ``delta`` =
    matched - mismatched, and its unpaired standard error ``se`` =
    sqrt(s_m^2 / n_m + s_x^2 / n_x). A mean is None without results,
    ``delta`` unless both sides have some and ``se`` unless both have 2+.
    """
    if metric not in REPORT_METRICS:
        raise ParameterError(f"unknown metric {metric!r}")
    groups: dict[tuple, tuple[list, list]] = {}  # (matched, mismatched) values
    for r in results:
        family, mode = r.method.split("_")
        key = (SCENARIOS.index(r.scenario), r.dataset, r.c, family)
        groups.setdefault(key, ([], []))[mode != r.scenario].append(getattr(r, metric))
    rows = []
    for (k, dataset, c, family), sides in sorted(groups.items()):
        row = {"scenario": SCENARIOS[k], "dataset": dataset, "c": c, "family": family}
        for name, v in zip(("matched", "mismatched"), sides):
            row[f"n_{name}"], row[name] = len(v), float(np.mean(v)) if v else None
        row["delta"] = row["matched"] - row["mismatched"] if all(sides) else None
        spread = min(map(len, sides)) >= 2
        row["se"] = math.sqrt(sum(np.var(v, ddof=1) / len(v) for v in sides)) if spread else None
        rows.append(row)
    return rows


# each report column: its summarize key and how a value other than None prints
_REPORT_COLUMNS = {
    "scenario": "{}", "dataset": "{}", "c": "{!r}", "family": "{}", "n_matched": "{}",
    "matched": "{:.2f}", "n_mismatched": "{}", "mismatched": "{:.2f}", "delta": "{:.2f}",
    "se": "{:.2f}",
}


def emit_report(results_path, metric: str = "accuracy") -> str:
    """The ``summarize`` rows of a results file as one table, None as a blank
    cell; error rows and a file without results are reported on stderr."""
    results, n_errors = load_results(results_path)
    rows = summarize(results, metric)
    if n_errors:
        print(f"warning: {n_errors} error rows skipped", file=sys.stderr)
    if not rows:
        print("warning: no results", file=sys.stderr)
    title = f"{metric} (percent), mean over seeds; delta = matched - mismatched, unpaired se"
    table = [list(_REPORT_COLUMNS)] + [
        ["" if row[k] is None else fmt.format(row[k]) for k, fmt in _REPORT_COLUMNS.items()]
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(map(str.rjust, cells, widths)).rstrip() for cells in table]
    return "\n".join([title, "=" * len(title), *lines]) + "\n"


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
    trainer = doc.get("trainer", {})
    for key, axis in (("method", "methods"), ("seed", "seeds")):
        if isinstance(trainer, dict) and key in trainer:
            raise FormatError(
                f"trainer.{key} is not a grid setting: each cell takes it from "
                f"the grid's {axis!r} list"
            )
    try:
        sources = []
        for entry in doc["datasets"]:
            entry = dict(entry)
            path = entry.get("path")
            if path and not os.path.isabs(path):
                entry["path"] = os.path.join(base_dir, path)
            sources.append(DatasetSource(**entry))
        trainer = TrainerConfig(**trainer)
        kwargs = {k: v for k, v in doc.items() if k not in ("datasets", "trainer")}
        return GridSpec(datasets=sources, trainer=trainer, **kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad grid config: {exc}") from None


def load_grid_config(path) -> GridSpec:
    with _open_text(path) as fh:
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

    The checks run through ``_spread``, on every usable CPU. Their shared
    inputs (the suite stream's two draws, the gradient objective and the
    sampler pool) are made here before any fork, and every other draw comes
    from a check's own substream, so the list is the same for any process
    count.

    The sampler checks draw from a 400,000-row pool of labels plus one
    all-zero feature column. The proportions read only labels, and the
    labels are the ones ``gaussian_mixture`` would draw first from the same
    stream, so every line matches a Gaussian pool's without drawing its
    400,000 unread features. Both samplers still gather the rows, and the
    zero column takes no resident pages until they do.
    """
    rng = Rng(20240817)
    margins = (rng.uniform(1000) - 0.5) * 100.0
    x = rng.normal(12, sd=1.5).reshape(6, 2)
    s = np.array([1, 1, -1, -1, -1, -1])
    branches = [(mode, surrogate) for mode in SCENARIOS for surrogate in (False, True)]
    obj = batch_objective(x, s, 0.5, risk.LOGISTIC, branches)
    n = 200000
    # the labels gaussian_mixture(2 * n, 0.5, rng=rng.child(2000)) draws first
    labels = _signs(rng.child(2000).bernoulli(0.5, 2 * n))
    pool = LabeledDataset(np.zeros((2 * n, 1)), labels, 0.5)

    def regrouping():
        """The regrouped single-sample estimator equals the pooled form."""
        worst = 0.0
        for i in range(100):
            r = rng.child(i)
            n_l = 1 + int(r.uniform(1)[0] * 63)
            n_u = int(r.uniform(1)[0] * 448)
            gl = r.normal(n_l, sd=3.0)
            gu = r.normal(n_u, sd=3.0)
            pi = 0.05 + 0.9 * r.uniform(1)[0]
            labeled = np.arange(n_l + n_u) < n_l
            g = np.concatenate([gl, gu])
            a = risk.risk_components(g, labeled, pi, SCENARIO_SS, grad=False).unbiased()[0]
            b = risk.empirical_risk_ss_regrouped(gl, gu, pi)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        return ("single-sample estimator regrouping identity", worst < 1e-12,
                f"max relative difference {worst:.3e} over 100 batches (tol 1e-12)")

    def margin_identity():
        """l(s) - l(-s) = -s for the logistic loss."""
        err = np.abs(risk.loss_logistic(margins) - risk.loss_logistic(-margins) + margins).max()
        return ("logistic margin identity", err < 1e-10,
                f"max absolute error {err:.3e} over 1000 margins (tol 1e-10)")

    def gradient(k, activation, tol):
        """Both branches of both modes, in one sweep."""
        m = init([2, 8, 8, 1], activation, rng.child(1000 + k))
        if activation == "relu":
            for b in m.biases[:-1]:
                b += 0.05  # keep pre-activations away from the kink
        worst = grad_check(m, obj, h=1e-5)
        return (f"gradient check ({activation})", worst < tol,
                f"max relative error {worst:.3e} (tol {tol:g})")

    def mix(stream, c, scenario, label, want, shown):
        """A sampler's unlabeled positive fraction against its closed form."""
        pu = corrupt(pool, scenario, c, n, rng.child(stream))
        # unlabeled positives are the rows with y_true = +1 > s = -1
        n_unl = pu.n - pu.n_labeled
        frac = float(np.count_nonzero(pu.y_true > pu.s) / n_unl)
        sigma = math.sqrt(want * (1.0 - want) / n_unl)
        return (f"{label} unlabeled mix (c={c})", abs(frac - want) <= 3.0 * sigma,
                f"fraction {frac:.5f} vs {shown} (3 sigma = {3 * sigma:.5f})")

    checks = [regrouping, margin_identity, functools.partial(gradient, 0, "tanh", 1e-6),
              functools.partial(gradient, 1, "relu", 1e-4)]
    for j, c in enumerate((0.1, 0.5, 0.9)):
        target = unlabeled_positive_fraction_ss(0.5, c)
        checks += [
            functools.partial(mix, 2100 + j, c, SCENARIO_SS, "single-sample", target,
                              f"{target:.5f}"),
            functools.partial(mix, 2200 + j, c, SCENARIO_CC, "case-control", 0.5, "0.5"),
        ]
    return list(_spread([(f"self-check {i + 1} of {len(checks)}", check)
                         for i, check in enumerate(checks)]))
