"""Feed-forward scoring network with exact analytic gradients.

The network maps a feature row to a single real score through fully
connected layers with relu or tanh hidden activations and a linear output.
``forward_pass`` runs an already validated batch through the network,
returning a ``ForwardPass`` that holds every layer's input; ``forward``
validates its input with ``as_matrix`` and returns the pass's ``scores``.
``backward`` consumes that pass instead of recomputing it and returns the
exact gradient of sum_i upstream_i * g(x_i) with respect to every
parameter, which is all a loss needs once it supplies d(objective)/d(score)
per row. So a training step runs the network forward once:
``forward_pass``, the loss on ``fp.scores``, then ``backward(model, fp,
upstream, out=grads)``. Both take their matrix products with ``np.dot``,
which hands each one to BLAS; ``@`` sends a product with an inner
dimension of 1 (one input feature, or the (n, 1) output layer) to a loop
several times slower, for the same bits. ``grad_check`` verifies any
objective's analytic gradient against central finite differences of its
value, which it asks for without the gradient.

Each hidden activation is written over its fresh pre-activation, and
``backward`` takes the activation's derivative from the output (relu:
a > 0; tanh: 1 - a * a), so a pass allocates one array per layer, not
two. That matters most for the per-epoch test scoring, where each layer
of a 1,000-row pass is a fresh 256 KB array paid for in page faults.

A model keeps every parameter in one flat float64 vector, ``params``
(weights, then biases, each C-ordered); ``weights[k]`` and ``biases[k]``
are views into it, however the model was made. A ``GradientBundle`` has
the same layout in its own vector ``flat``, so an optimizer steps all the
parameters with a few whole-vector operations. ``backward`` writes into
a bundle it is given, which a training run allocates once and reuses
for every batch; each element gets the same IEEE operations in the same
order as with fresh arrays, so the results are bit-identical.

``save_model`` writes a checkpoint as plain JSON ("mlp-checkpoint-v1"):
layer dims, activation name, and parameters as nested lists, written
atomically. Python's float repr is shortest-round-trip, so reading the
file back reproduces every parameter bit for bit. The package reads no
checkpoint; ``tests/oracles.py`` holds the reader the round-trip tests
use.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import _write_atomically
from .errors import ParameterError, ShapeError
from .numerics import Rng, as_matrix

ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_FORMAT = "mlp-checkpoint-v1"


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``, written over ``z``."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _act_deriv(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, from its output ``a``: relu's a > 0 holds
    exactly where z > 0, and tanh's 1 - a * a is 1 - tanh(z)^2 with the same
    bits as taking tanh of z again."""
    if kind == "relu":
        return a > 0.0  # a bool mask multiplies exactly like 1.0 / 0.0
    return 1.0 - a * a


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive C-ordered views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@dataclass(eq=False)
class MLPModel:
    """Layer sizes plus weight matrices (out x in) and bias vectors.

    Every parameter lives in the one float64 vector ``params``: the weights,
    then the biases, each C-ordered. ``weights[k]`` and ``biases[k]`` are
    views into it, so an in-place edit through either side is seen by the
    other. Construction checks the arrays against ``layer_dims`` (ShapeError
    on a mismatch) and copies them into a fresh ``params``. Models compare
    by identity: ``==`` on two models is ``is``.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims, n = self.layer_dims, len(self.weights)
        if not n == len(self.biases) == len(dims) - 1:
            raise ShapeError(
                f"{len(dims)} layer sizes need {len(dims) - 1} weight matrices "
                f"and bias vectors, got {n} and {len(self.biases)}"
            )
        given = [*self.weights, *self.biases]
        arrays = [np.asarray(a, dtype=np.float64) for a in given]
        for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w, b = arrays[k].shape, arrays[n + k].shape
            if w != (fan_out, fan_in) or b != (fan_out,):
                raise ShapeError(
                    f"layer {k} of layer_dims {dims} needs weights "
                    f"{(fan_out, fan_in)} and biases {(fan_out,)}, got {w} and {b}"
                )
        self.params = np.empty(sum(a.size for a in arrays))
        views = _views(self.params, [a.shape for a in arrays])
        for view, a in zip(views, arrays):
            view[...] = a
        self.weights, self.biases = views[:n], views[n:]

    def repack(self) -> None:
        """Copy the parameters into a fresh ``params`` if a ``weights`` or
        ``biases`` entry is no longer a view of it (it was rebound after
        construction, or the model was deep-copied or unpickled)."""
        if any(a.base is not self.params for a in self.weights + self.biases):
            self.__post_init__()

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


@dataclass(eq=False)
class GradientBundle:
    """Gradients with the same shapes as the owning model's parameters,
    views of the one vector ``flat``, laid out like ``MLPModel.params``.
    Bundles compare by identity."""

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def like(cls, model: MLPModel) -> "GradientBundle":
        """An uninitialised bundle for ``model``'s parameter shapes."""
        flat = np.empty_like(model.params)
        views = _views(flat, [a.shape for a in model.weights + model.biases])
        n = len(model.weights)
        return cls(flat, views[:n], views[n:])


def init(layer_dims, activation: str, rng: Rng) -> MLPModel:
    """Build a model with fan-in-scaled normal weights and zero biases.

    Hidden weights are N(0, 2/fan_in) for relu and N(0, 1/fan_in) for
    tanh, the standard variance-preserving choices for each nonlinearity.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or min(dims) < 1 or dims[-1] != 1:
        raise ParameterError(
            f"layer_dims {dims} needs at least two sizes, all >= 1, "
            "and an output size of 1"
        )
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


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """One forward pass over a batch, kept for ``backward``.

    ``acts[k]`` is the input of layer k, so ``acts[0]`` is the validated
    batch and ``acts[-1]`` the (n, 1) output. Each hidden activation is
    written over its pre-activation, which is not kept. ``len()`` is the
    number of rows. Passes compare by identity.
    """

    acts: list[np.ndarray]

    @property
    def scores(self) -> np.ndarray:
        """Scores g(x), one float per row."""
        return self.acts[-1][:, 0]

    def __len__(self) -> int:
        return self.acts[0].shape[0]


def forward_pass(model: MLPModel, x: np.ndarray) -> ForwardPass:
    """Run the network over ``x``, keeping every layer's input.

    ``x`` is not validated: it must already be a finite C-ordered float64
    matrix of the model's width, such as a row slice of a dataset's
    features or the output of ``as_matrix``.
    """
    a = x
    acts = [a]
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.dot(a, w.T)
        z += b
        a = z if k == last else _act(z, model.activation)
        acts.append(a)
    return ForwardPass(acts)


def forward(model: MLPModel, x) -> np.ndarray:
    """Scores g(x), one float per row of ``x``, validated with ``as_matrix``."""
    return forward_pass(model, as_matrix(x, cols=model.input_dim)).scores


def backward(
    model: MLPModel, fp: ForwardPass, upstream, out: GradientBundle | None = None
) -> GradientBundle:
    """Exact gradient of sum_i upstream_i * g(x_i) over all parameters.

    ``fp`` is ``forward_pass(model, x)`` taken at the model's current
    parameters; the batch is not run through the network again. Every
    gradient is written into ``out`` (a ``GradientBundle.like(model)``,
    which may be reused from call to call) and ``out`` is returned; without
    it a new bundle is made.
    """
    u = np.asarray(upstream, dtype=np.float64)
    if u.shape != (len(fp),):
        raise ShapeError(
            f"upstream must have one entry per row: expected {(len(fp),)}, "
            f"got {u.shape}"
        )
    if out is None:
        out = GradientBundle.like(model)
    delta = u[:, None]
    for k in range(len(model.weights) - 1, -1, -1):
        np.dot(delta.T, fp.acts[k], out=out.weights[k])
        np.add.reduce(delta, axis=0, out=out.biases[k])
        if k > 0:
            delta = np.dot(delta, model.weights[k])
            delta *= _act_deriv(fp.acts[k], model.activation)
    return out


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
    model.repack()
    _, analytic = objective(model, grad=True)
    flat, gflat = model.params, analytic.flat
    worst = 0.0
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
    """Write a checkpoint atomically: ``path`` holds its old bytes or all the new ones."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layer_dims": model.layer_dims,
        "activation": model.activation,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    # the chunks json.dump would write, streamed through the atomic writer
    _write_atomically(path, itertools.chain(json.JSONEncoder().iterencode(doc), ["\n"]))
