"""Minibatched PU training with the non-negative truncation branch.

Each epoch gathers the training rows in shuffled order once and walks
minibatches as slices of them. Every batch takes the same four steps: run
the network over the rows once (``forward_pass``), compute the three risk
components of its scores and their per-row gradients in the mode named by
the method (``risk.risk_components``; ``*_ss`` pools labeled and
unlabeled rows into the distribution term, ``*_cc`` uses unlabeled rows
only), pick a combination of them, and backpropagate its gradient through
that same pass (``backward``). The uPU methods always descend the
unbiased combination r_label + (r_dist - r_corr) with step eta. The nnPU
methods watch the signed part: while r_dist - r_corr > -beta they descend
the unbiased combination; once it falls to -beta or below they instead
descend the surrogate r_corr - r_dist with the discounted step gamma*eta,
which pushes the overfitted negative part back up. Defaults are beta=0
and gamma=1. A run allocates one ``GradientBundle`` and ``backward``
writes every batch's gradient into it. The step works on whole vectors:
plain SGD scales that buffer in place and subtracts it from the model's
flat ``params``, and ``optimizer="adam-style"`` keeps its adaptive moments
as two more vectors of the same layout. Per-epoch sums are Python floats.
``batch_objective`` gives several (mode, branch) objectives of one batch
from one pass as ``(values, bundles)``, the form ``grad_check`` takes, so
one finite-difference sweep verifies them all.

Per-epoch traces (``EpochTrace``, one trace-file row each; the file's
columns are its field names) record the mean components, the mean
objective (the truncated value for nnPU methods), the fraction of batches
that triggered truncation, and test accuracy (a fraction in [0, 1]) when a
held-out labeled set is supplied. ``evaluate`` scores a trained model's
hard predictions on a labeled set in percent.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .datasets import (
    SCENARIO_CC, SCENARIO_SS, LabeledDataset, PUDataset, _as_labels, _open_csv,
    _write_atomically,
)
from .errors import DataError, FormatError, ParameterError, ShapeError, TrainingError
from .metrics import confusion, scores
from .model import GradientBundle, MLPModel, backward, forward, forward_pass
from .numerics import Rng, as_matrix, check_field_types
from .risk import get_loss, nnpu_risk, risk_components

METHODS = ("nnpu_ss", "nnpu_cc", "upu_ss", "upu_cc")
OPTIMIZERS = ("sgd", "adam-style")


@dataclass
class TrainerConfig:
    """Hyperparameters for one training run."""

    method: str = "nnpu_ss"
    beta: float = 0.0
    gamma: float = 1.0
    eta: float = 0.1
    epochs: int = 50
    batch_size: int = 100
    optimizer: str = "sgd"
    seed: int = 0
    loss: str = "logistic"

    def __post_init__(self):
        check_field_types(self)
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.eta <= 0:
            raise ParameterError(f"eta must be > 0, got {self.eta}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ParameterError(f"optimizer must be one of {OPTIMIZERS}")
        get_loss(self.loss)

    @property
    def mode(self) -> str:
        """The scenario the method's estimator assumes: SCENARIO_SS or SCENARIO_CC."""
        return SCENARIO_SS if self.method.endswith("_ss") else SCENARIO_CC

    @property
    def is_nnpu(self) -> bool:
        return self.method.startswith("nnpu")


@dataclass
class EpochTrace:
    """One epoch's means; the fields are the trace file's columns, in order."""

    epoch: int
    r_label: float
    r_dist: float
    r_corr: float
    objective: float
    truncation_fraction: float
    test_accuracy: float | None = None


TRACE_COLUMNS = tuple(f.name for f in fields(EpochTrace))
_trace_row = attrgetter(*TRACE_COLUMNS)


class _Adam:
    """Adaptive-moment updates (non-default; the plain method is sgd)."""

    def __init__(self, model: MLPModel, b1=0.9, b2=0.999, eps=1e-8):
        self.b1, self.b2, self.eps = b1, b2, eps
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)

    def step(self, model: MLPModel, grads: GradientBundle, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        g, m, v = grads.flat, self.m, self.v
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * g * g
        model.params -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _sgd_step(model: MLPModel, grads: GradientBundle, lr: float) -> None:
    """params -= lr * g in place; scales the gradient buffer, which the
    next ``backward`` overwrites."""
    g = grads.flat
    g *= lr
    model.params -= g


def _check_width(x: np.ndarray, model: MLPModel, what: str) -> None:
    if x.shape[1] != model.input_dim:
        raise ShapeError(
            f"{what} has {x.shape[1]} features, model expects {model.input_dim}"
        )


def _check_rows(test: LabeledDataset) -> None:
    if test.n == 0:
        raise DataError("test set has no rows, so its accuracy is undefined")


def batch_objective(x, s, pi: float, loss, branches):
    """Objective factory for one batch and several branches of the update rule.

    ``branches`` is a sequence of (mode, surrogate) pairs. The returned
    ``objective(model, grad=True)`` gives (values, bundles), one entry per
    pair in order; ``bundles`` is None, and no per-row risk gradient or
    ``backward`` is computed, when ``grad`` is False. Each value is what its
    branch descends: r_label + r_dist - r_corr (unbiased) or r_corr -
    r_dist (surrogate). A call runs the network once and
    ``risk_components`` once per distinct mode. ``x`` and ``s`` (+-1
    labels, one per row) are validated here once, not on every call.
    """
    x = as_matrix(x)
    lab_mask = _as_labels(s, x.shape[0], "s") == 1
    branches = list(branches)
    if not branches:
        raise ParameterError("branches must name at least one (mode, surrogate) pair")
    modes = dict.fromkeys(mode for mode, _ in branches)

    def objective(model: MLPModel, grad: bool = True):
        _check_width(x, model, "batch")
        fp = forward_pass(model, x)
        comps = {m: risk_components(fp.scores, lab_mask, pi, m, loss, grad) for m in modes}
        picked = [comps[m].surrogate() if surrogate else comps[m].unbiased()
                  for m, surrogate in branches]
        values = [value for value, _ in picked]
        return values, [backward(model, fp, u) for _, u in picked] if grad else None

    return objective


@np.errstate(over="ignore", invalid="ignore")  # the finite checks report divergence
def train(
    dataset: PUDataset,
    cfg: TrainerConfig,
    model: MLPModel,
    test: LabeledDataset | None = None,
) -> tuple[MLPModel, list[EpochTrace]]:
    """Run the minibatch loop; mutates ``model`` in place and returns it.

    A ``weights`` or ``biases`` entry rebound since the model was built is
    first copied into ``params`` (``MLPModel.repack``), so the run never
    steps a vector the layers no longer read.

    Raises DataError before any epoch for a test set with no rows, and
    TrainingError naming the epoch and batch if the objective goes
    non-finite (divergence is reported, never clamped).
    """
    n = dataset.n
    _check_width(dataset.x, model, "dataset")
    if test is not None:
        _check_width(test.x, model, "test set")
        _check_rows(test)
    if cfg.batch_size > n:
        raise ParameterError(
            f"batch_size {cfg.batch_size} exceeds dataset size {n}"
        )
    loss = get_loss(cfg.loss)
    mode = cfg.mode
    pi = dataset.pi
    is_nnpu, beta = cfg.is_nnpu, cfg.beta
    eta, surrogate_eta = cfg.eta, cfg.gamma * cfg.eta
    rng = Rng(cfg.seed)
    model.repack()
    step = _sgd_step if cfg.optimizer == "sgd" else _Adam(model).step
    grads = GradientBundle.like(model)
    traces: list[EpochTrace] = []
    batches = [slice(i, i + cfg.batch_size) for i in range(0, n, cfg.batch_size)]
    n_batches = len(batches)
    labeled = dataset.s == 1

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        # gather the epoch's rows once; each batch is a view of a slice
        x_epoch = dataset.x[perm]
        lab_epoch = labeled[perm]
        sum_label = sum_dist = sum_corr = sum_objective = 0.0
        truncated_batches = 0
        for b, rows in enumerate(batches):
            # PUDataset validated x, so its rows need no second scan
            fp = forward_pass(model, x_epoch[rows])
            comp = risk_components(fp.scores, lab_epoch[rows], pi, mode, loss)
            nn_value, truncated = nnpu_risk(comp, beta)
            surrogate = is_nnpu and truncated
            value, upstream = comp.surrogate() if surrogate else comp.unbiased()
            objective = nn_value if is_nnpu else value
            if not math.isfinite(objective):
                raise TrainingError(
                    f"non-finite objective at epoch {epoch}, batch {b} "
                    f"(method {cfg.method}, eta {cfg.eta})"
                )
            truncated_batches += truncated
            sum_label += comp.r_label
            sum_dist += comp.r_dist
            sum_corr += comp.r_corr
            sum_objective += objective
            backward(model, fp, upstream, out=grads)
            step(model, grads, surrogate_eta if surrogate else eta)
        test_acc = None
        if test is not None:
            # LabeledDataset validated test.x, and its width is checked above
            preds = classify_scores(forward_pass(model, test.x).scores)
            test_acc = np.count_nonzero(preds == test.y) / test.n
        means = (s / n_batches for s in (sum_label, sum_dist, sum_corr, sum_objective))
        traces.append(EpochTrace(epoch, *means, truncated_batches / n_batches, test_acc))
    return model, traces


def classify_scores(g_values) -> np.ndarray:
    """Hard labels from scores: +1 where g >= 0, else -1, in numpy's
    default integer type (int64, except on Windows under numpy 1.x)."""
    g = np.asarray(g_values, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise ParameterError("scores must be finite")
    return np.where(g >= 0, 1, -1)


@np.errstate(over="ignore", invalid="ignore")  # classify_scores reports divergence
def evaluate(model: MLPModel, data: LabeledDataset) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) in percent of the model's hard
    predictions on a labeled set; DataError for a set with no rows."""
    _check_rows(data)
    return scores(confusion(classify_scores(forward(model, data.x)), data.y))


def save_trace(traces, path) -> None:
    """Persist per-epoch diagnostics as CSV (empty test accuracy allowed),
    atomically: ``path`` holds its old bytes or all the new ones."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TRACE_COLUMNS)
    w.writerows(map(_trace_row, traces))  # csv writes None as an empty cell
    _write_atomically(path, buf.getvalue().splitlines(keepends=True))


def load_trace(path) -> list[EpochTrace]:
    with _open_csv(path) as (_, reader):
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise FormatError(f"{path}: unexpected trace header {header}")
        out = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(TRACE_COLUMNS):
                raise FormatError(f"{where}: expected {len(TRACE_COLUMNS)} cells")
            epoch, *means, acc = row
            try:
                acc = float(acc) if acc else None
                out.append(EpochTrace(int(epoch), *map(float, means), acc))
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}") from None
        return out
