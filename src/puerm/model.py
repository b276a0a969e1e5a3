"""Feed-forward scoring network with exact analytic gradients.

The network maps a feature row to a single real score through fully
connected layers with relu or tanh hidden activations and a linear output.
``forward_pass`` validates a batch once (or not at all, for rows already
validated, with ``checked=True``) and runs it through the network,
returning a ``ForwardPass`` that holds every layer's pre-activations and
activations; its ``scores`` are what ``forward`` returns. ``backward``
consumes that pass instead of recomputing it and returns the exact
gradient of sum_i upstream_i * g(x_i) with respect to every parameter,
which is all a loss needs once it supplies d(objective)/d(score) per row.
So a training step runs the network forward once: ``forward_pass``, the
loss on ``fp.scores``, then ``backward(model, fp, upstream)``. Both take
their matrix products with ``np.dot``, which hands each one to BLAS; ``@``
sends a product with an inner dimension of 1 (one input feature, or the
(n, 1) output layer) to a loop several times slower, for the same bits.
``grad_check`` verifies any objective's analytic gradient against central
finite differences of its value, which it asks for without the gradient.

Checkpoints are JSON ("mlp-checkpoint-v1"): layer dims, activation name,
and parameters as nested lists. Python's float repr is shortest-round-trip,
so a save/load cycle reproduces every parameter bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, ShapeError
from .numerics import Rng, as_matrix

ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_FORMAT = "mlp-checkpoint-v1"


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_deriv(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return z > 0.0  # a bool mask multiplies exactly like 1.0 / 0.0
    t = np.tanh(z)
    return 1.0 - t * t


@dataclass
class MLPModel:
    """Layer sizes plus weight matrices (out x in) and bias vectors."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def copy(self) -> "MLPModel":
        return MLPModel(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activation=self.activation,
        )


@dataclass
class GradientBundle:
    """Gradients with the same shapes as the owning model's parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _check_layer_dims(dims: list[int]) -> None:
    if len(dims) < 2 or min(dims) < 1 or dims[-1] != 1:
        raise ParameterError(
            f"layer_dims {dims} needs at least two sizes, all >= 1, "
            "and an output size of 1"
        )


def init(layer_dims, activation: str, rng: Rng) -> MLPModel:
    """Build a model with fan-in-scaled normal weights and zero biases.

    Hidden weights are N(0, 2/fan_in) for relu and N(0, 1/fan_in) for
    tanh, the standard variance-preserving choices for each nonlinearity.
    """
    dims = [int(d) for d in layer_dims]
    _check_layer_dims(dims)
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}")
    gain = 2.0 if activation == "relu" else 1.0
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        sd = float(np.sqrt(gain / fan_in))
        w = rng.normal(fan_out * fan_in, sd=sd).reshape(fan_out, fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MLPModel(layer_dims=dims, weights=weights, biases=biases, activation=activation)


@dataclass(frozen=True)
class ForwardPass:
    """One forward pass over a batch, kept for ``backward``.

    ``zs[k]`` is the pre-activation of layer k and ``acts[k]`` its input,
    so ``acts[0]`` is the validated batch and ``acts[-1]`` the (n, 1)
    output. ``len()`` is the number of rows.
    """

    zs: list[np.ndarray]
    acts: list[np.ndarray]

    @property
    def scores(self) -> np.ndarray:
        """Scores g(x), one float per row."""
        return self.acts[-1][:, 0]

    def __len__(self) -> int:
        return self.acts[0].shape[0]


def forward_pass(model: MLPModel, x, *, checked: bool = False) -> ForwardPass:
    """Run the network over ``x``, keeping every layer.

    ``x`` is validated with ``as_matrix`` unless ``checked`` says it is
    already a finite C-ordered float64 matrix of the model's width, such
    as a row slice of a dataset's features.
    """
    a = x if checked else as_matrix(x, cols=model.input_dim)
    zs, acts = [], [a]
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.dot(a, w.T)
        z += b
        zs.append(z)
        a = z if k == last else _act(z, model.activation)
        acts.append(a)
    return ForwardPass(zs, acts)


def forward(model: MLPModel, x) -> np.ndarray:
    """Scores g(x), one float per row of ``x``."""
    return forward_pass(model, x).scores


def backward(model: MLPModel, fp: ForwardPass, upstream) -> GradientBundle:
    """Exact gradient of sum_i upstream_i * g(x_i) over all parameters.

    ``fp`` is ``forward_pass(model, x)`` taken at the model's current
    parameters; the batch is not run through the network again.
    """
    u = np.asarray(upstream, dtype=np.float64)
    if u.shape != (len(fp),):
        raise ShapeError(
            f"upstream must have one entry per row: expected {(len(fp),)}, "
            f"got {u.shape}"
        )
    n_layers = len(model.weights)
    weights = [None] * n_layers
    biases = [None] * n_layers
    delta = u[:, None]
    for k in range(n_layers - 1, -1, -1):
        weights[k] = np.dot(delta.T, fp.acts[k])
        biases[k] = delta.sum(axis=0)
        if k > 0:
            delta = np.dot(delta, model.weights[k])
            delta *= _act_deriv(fp.zs[k - 1], model.activation)
    return GradientBundle(weights=weights, biases=biases)


def grad_check(model: MLPModel, objective, h: float = 1e-5) -> float:
    """Largest relative disagreement between analytic and numeric gradients.

    ``objective(model, grad)`` must return (value, GradientBundle) when
    ``grad`` is True and may return (value, None) when it is False. The
    gradient is asked for once, at the unperturbed parameters; every
    parameter is then perturbed by +-h for a central difference of the
    value alone. The result is max over parameters of |analytic - numeric|
    divided by max(|analytic| + |numeric|, 1e-8).
    """
    if h <= 0:
        raise ParameterError(f"h must be > 0, got {h}")
    _, analytic = objective(model, grad=True)
    worst = 0.0
    for array, grad in zip(model.weights + model.biases, analytic.weights + analytic.biases):
        flat = array.ravel()
        gflat = np.asarray(grad, dtype=np.float64).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = objective(model, grad=False)
            flat[i] = orig - h
            down, _ = objective(model, grad=False)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]) + abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def save_model(model: MLPModel, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layer_dims": model.layer_dims,
        "activation": model.activation,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _float_arrays(path, doc: dict, key: str) -> list[np.ndarray]:
    """``doc[key]`` as float64 arrays; it must be a list of numeric arrays."""
    items = doc[key]
    if not isinstance(items, list):
        raise FormatError(f"{path}: {key} must be a list, got {type(items).__name__}")
    arrays = []
    for item in items:
        try:
            a = np.asarray(item)
        except ValueError:  # ragged nesting
            raise FormatError(f"{path}: {key} holds a ragged array") from None
        if a.dtype.kind not in "iuf":
            raise FormatError(f"{path}: {key} must hold numbers only")
        arrays.append(np.asarray(a, dtype=np.float64))
    return arrays


def load_model(path) -> MLPModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: checkpoint must be a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(
            f"{path}: expected format {CHECKPOINT_FORMAT!r}, got {doc.get('format')!r}"
        )
    missing = [k for k in ("layer_dims", "activation", "weights", "biases") if k not in doc]
    if missing:
        raise FormatError(f"{path}: checkpoint is missing {missing}")
    dims = doc["layer_dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise FormatError(f"{path}: layer_dims must be a list of integers")
    try:
        _check_layer_dims(dims)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if doc["activation"] not in ACTIVATIONS:
        raise FormatError(f"{path}: unknown activation {doc['activation']!r}")
    weights = _float_arrays(path, doc, "weights")
    biases = _float_arrays(path, doc, "biases")
    if not len(weights) == len(biases) == len(dims) - 1:
        raise FormatError(
            f"{path}: {len(dims)} layer sizes need {len(dims) - 1} weight matrices "
            f"and bias vectors, got {len(weights)} and {len(biases)}"
        )
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if weights[k].shape != (fan_out, fan_in) or biases[k].shape != (fan_out,):
            raise FormatError(f"{path}: parameter shapes do not match layer_dims")
    if not all(np.all(np.isfinite(p)) for p in weights + biases):
        raise FormatError(f"{path}: parameters must be finite")
    return MLPModel(
        layer_dims=dims, weights=weights, biases=biases, activation=doc["activation"]
    )
