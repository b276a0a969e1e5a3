"""Reference formulas and helpers that only the tests use.

The true-label risk and its case-control and single-sample decompositions
are the references the PU estimators are tested against (acceptance
criterion 5). ``ss_unlabeled_mixture_weights`` is the closed form of the
single-sample unlabeled mixture. ``load_model`` reads a checkpoint that
``puerm.model.save_model`` wrote back into a model, without validating it,
for the bit-exact round-trip tests; ``copy_model`` copies a model into its
own parameter vector.
"""

import dataclasses
import json

import numpy as np

from puerm.errors import DataError, ParameterError, ShapeError
from puerm.model import MLPModel
from puerm.risk import LOGISTIC, LossSpec, _as_scores, _check_pi


def true_risk(g_values, y_true, loss: LossSpec = LOGISTIC) -> float:
    """Mean loss at the true-label margins: mean of l(y * g(x))."""
    g = _as_scores(g_values, "g_values")
    y = np.asarray(y_true, dtype=np.float64)
    if y.shape != g.shape:
        raise ShapeError(
            f"y_true length {y.shape} does not match scores {g.shape}"
        )
    if g.size == 0:
        raise DataError("true risk of an empty sample is undefined")
    return float(np.mean(loss.value(y * g)))


def risk_decomposition_cc(
    g_values, y_true, pi: float, loss: LossSpec = LOGISTIC
) -> float:
    """Risk written in prior-weighted case-control form.

    Evaluates pi * E_{y=1} l(g) + E l(-g) - pi * E_{y=1} l(-g) with
    empirical means; agrees with ``true_risk`` exactly when ``pi`` is the
    empirical positive fraction of ``y_true``.
    """
    pi = _check_pi(pi)
    g = _as_scores(g_values, "g_values")
    y = np.asarray(y_true, dtype=np.int64)
    if y.shape != g.shape:
        raise ShapeError("y_true length does not match scores")
    pos = y == 1
    if not np.any(pos):
        raise DataError("decomposition needs at least one positive row")
    gp = g[pos]
    return (
        pi * float(np.mean(loss.value(gp)))
        + float(np.mean(loss.value(-g)))
        - pi * float(np.mean(loss.value(-gp)))
    )


def risk_decomposition_ss(
    g_values, s, y_true, pi: float, loss: LossSpec = LOGISTIC
) -> float:
    """Risk written in single-sample form over one jointly drawn sample.

    Evaluates pi * E_{s=1} l(g) + P(s=-1) * E_{s=-1} l(-g)
    - P(y=1, s=-1) * E_{s=1} l(-g), with P(s=-1) taken empirically and
    the joint probability estimated by the plug-in pi - n_labeled / n.
    ``y_true`` is optional and used only to validate that labeled rows
    are genuinely positive.
    """
    pi = _check_pi(pi)
    g = _as_scores(g_values, "g_values")
    sv = np.asarray(s, dtype=np.int64)
    if sv.shape != g.shape:
        raise ShapeError("s length does not match scores")
    if y_true is not None:
        y = np.asarray(y_true, dtype=np.int64)
        if y.shape != g.shape:
            raise ShapeError("y_true length does not match scores")
        if np.any((sv == 1) & (y == -1)):
            raise DataError("a row with s=+1 must have y_true=+1")
    lab = sv == 1
    n = g.size
    n_l = int(np.sum(lab))
    if n_l == 0:
        raise DataError("single-sample decomposition needs labeled rows")
    p_unl = (n - n_l) / n
    joint = pi - n_l / n
    second = p_unl * float(np.mean(loss.value(-g[~lab]))) if n_l < n else 0.0
    return (
        pi * float(np.mean(loss.value(g[lab])))
        + second
        - joint * float(np.mean(loss.value(-g[lab])))
    )



def ss_unlabeled_mixture_weights(pi: float, c: float) -> tuple[float, float]:
    """Mixture weights (w_pos, w_neg) of the single-sample unlabeled part.

    The unlabeled rows follow the two-component mixture
    w_pos * P(x | y=+1) + w_neg * P(x | y=-1) with
    w_pos = (pi - pi c) / (1 - pi c) and w_neg = (1 - pi) / (1 - pi c);
    the weights sum to 1.
    """
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must be in (0, 1), got {pi}")
    if not 0.0 <= c <= 1.0:
        raise ParameterError(f"c must be in [0, 1], got {c}")
    denom = 1.0 - pi * c
    return (pi - pi * c) / denom, (1.0 - pi) / denom


def load_model(path) -> MLPModel:
    """The model in a ``save_model`` checkpoint, read as plain JSON."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return MLPModel(doc["layer_dims"], doc["weights"], doc["biases"], doc["activation"])


def copy_model(model: MLPModel) -> MLPModel:
    """The same model in a parameter vector of its own."""
    return dataclasses.replace(model, layer_dims=list(model.layer_dims))
