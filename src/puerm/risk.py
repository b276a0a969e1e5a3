"""Margin losses and the positive-unlabeled risk estimators.

Every estimator is a fixed combination of three per-batch components.
With a score function g, a loss ``l`` on margins, class prior ``pi``, and
a batch of n rows split into a labeled part L and an unlabeled part U:

* ``r_label``  = pi * mean over L of l(g(x))
* ``r_corr``   = pi * mean over L of l(-g(x))
* ``r_dist``   = the general-distribution term. In case-control mode it is
  the mean of l(-g(x)) over U alone (U follows the full marginal). In
  single-sample mode L and U together form one draw from the marginal, so
  it is the sum of l(-g(x)) over the whole batch divided by n.

``risk_components`` returns the three values together with their per-row
gradients d(component)/d(g(x_i)); it is the only place that evaluates the
loss or its derivative during training, with one value call and one
derivative call per batch, each over the margins (-g, g); a caller that
needs only the values (``grad=False``) makes the value call alone. The
unbiased estimator (uPU) is ``r_label + (r_dist - r_corr)`` and may go
negative on finite samples. The non-negative estimator (nnPU) truncates
``r_dist - r_corr`` at zero; when that signed part falls too low,
training descends the surrogate ``r_corr - r_dist`` instead (Kiryo et
al., NeurIPS 2017, Algorithm 1).
``RiskComponents.unbiased`` and ``RiskComponents.surrogate`` give those two
combinations as (value, per-row gradient). The true-label risk and its
decompositions, which the tests compare the estimators with, are in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datasets import SCENARIO_CC, SCENARIOS
from .errors import DataError, ParameterError, ShapeError


def _sigmoid(t):
    """Numerically stable 1 / (1 + e^-t) for scalars or arrays.

    With e = exp(-|t|), which never overflows, t >= 0 gives 1 / (1 + e)
    and t < 0 gives e / (1 + e) = 1 / (1 + e^-t).
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    out = np.where(t >= 0, 1.0 / d, e / d)
    return float(out) if out.ndim == 0 else out


def loss_logistic(margin):
    """Logistic loss log(1 + e^-margin), overflow-safe for any margin."""
    m = np.asarray(margin, dtype=np.float64)
    out = np.logaddexp(0.0, -m)
    return float(out) if out.ndim == 0 else out


def loss_logistic_derivative(margin):
    """d/dm log(1 + e^-m) = -1 / (1 + e^m), which is -_sigmoid(-m).

    With e = exp(-|m|), m <= 0 gives -1 / (1 + e) and m > 0 gives
    -e / (1 + e): ``_sigmoid``'s two quotients with the sign taken into
    the numerator, which rounds to the same bits in one division.
    """
    m = np.asarray(margin, dtype=np.float64)
    e = np.exp(-np.abs(m))
    out = np.where(m <= 0, -1.0, -e) / (1.0 + e)
    return float(out) if np.ndim(out) == 0 else out


def loss_sigmoid(margin):
    """Sigmoid loss 1 / (1 + e^margin), bounded in (0, 1)."""
    return _sigmoid(-np.asarray(margin, dtype=np.float64))


def loss_sigmoid_derivative(margin):
    """d/dm of the sigmoid loss: -v (1 - v) with v the loss value."""
    v = _sigmoid(-np.asarray(margin, dtype=np.float64))
    return -v * (1.0 - v)


@dataclass(frozen=True)
class LossSpec:
    """A margin loss: its name, value function and exact derivative."""

    kind: str
    value: Callable
    derivative: Callable


LOGISTIC = LossSpec("logistic", loss_logistic, loss_logistic_derivative)
SIGMOID = LossSpec("sigmoid", loss_sigmoid, loss_sigmoid_derivative)
LOSSES = {"logistic": LOGISTIC, "sigmoid": SIGMOID}


def get_loss(kind: str) -> LossSpec:
    try:
        return LOSSES[kind]
    except KeyError:
        raise ParameterError(
            f"unknown loss {kind!r}; available: {sorted(LOSSES)}"
        ) from None


@dataclass(eq=False)
class RiskComponents:
    """Per-batch risk pieces and their gradients with respect to the scores.

    Each value is nonnegative by construction. Each ``d_*`` array has one
    entry per batch row, in row order, and is zero on the rows its
    component does not read; all three are None when the components were
    computed without gradients. Components compare by identity.
    """

    r_label: float
    r_dist: float
    r_corr: float
    d_label: np.ndarray | None
    d_dist: np.ndarray | None
    d_corr: np.ndarray | None

    def unbiased(self) -> tuple[float, np.ndarray | None]:
        """The uPU objective r_label + (r_dist - r_corr) and its gradient."""
        value = self.r_label + (self.r_dist - self.r_corr)
        if self.d_label is None:
            return value, None
        return value, self.d_label + (self.d_dist - self.d_corr)

    def surrogate(self) -> tuple[float, np.ndarray | None]:
        """The nnPU surrogate r_corr - r_dist and its gradient."""
        value = self.r_corr - self.r_dist
        if self.d_label is None:
            return value, None
        return value, self.d_corr - self.d_dist


def _as_scores(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D sequence of scores, got ndim={a.ndim}")
    return a


def _check_pi(pi: float) -> float:
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must be in (0, 1), got {pi}")
    return float(pi)


def risk_components(
    g, labeled, pi: float, mode: str, loss: LossSpec = LOGISTIC, grad: bool = True
) -> RiskComponents:
    """The three components of one batch and their per-row gradients.

    ``g`` holds the batch's scores in row order and ``labeled`` is a
    boolean mask of the same length marking the rows of L. An empty
    labeled part yields r_label = r_corr = 0 so a degenerate batch still
    contributes its distribution term. With ``grad=False`` the gradients
    are left out (None) and ``loss.derivative`` is not called; the values
    are the same bits either way.
    """
    pi = _check_pi(pi)
    if mode not in SCENARIOS:
        raise ParameterError(f"mode must be one of {SCENARIOS}, got {mode!r}")
    g = _as_scores(g, "g")
    lab = np.asarray(labeled, dtype=bool)
    if lab.shape != g.shape:
        raise ShapeError(
            f"labeled mask shape {lab.shape} does not match scores {g.shape}"
        )
    unl = ~lab
    n_l = int(np.count_nonzero(lab))
    n_u = g.size - n_l
    # One value and one derivative call over the margins (-g, g): the same
    # ufuncs on the same numbers as a call per side, for half the overhead.
    margins = np.concatenate((-g, g))
    values = loss.value(margins)
    neg, pos = values[: g.size], values[g.size :]  # l(-g_i), l(g_i)
    # np.add.reduce / n is np.mean's arithmetic (the reduction behind
    # ndarray.sum) without either method's Python wrapper
    sum_neg_l = float(np.add.reduce(neg[lab]))
    sum_neg_u = float(np.add.reduce(neg[unl]))
    if n_l > 0:
        r_label = pi * (float(np.add.reduce(pos[lab])) / n_l)
        r_corr = pi * (sum_neg_l / n_l)
    else:
        r_label = r_corr = 0.0
    if mode == SCENARIO_CC:
        r_dist = sum_neg_u / n_u if n_u > 0 else 0.0
    else:
        n = n_l + n_u
        r_dist = (sum_neg_l + sum_neg_u) / n if n > 0 else 0.0
    if not grad:
        return RiskComponents(r_label, r_dist, r_corr, None, None, None)

    slopes = loss.derivative(margins)
    # l'(-g_i), l'(g_i); note d l(-g_i) / d g_i = -l'(-g_i)
    dneg, dpos = slopes[: g.size], slopes[g.size :]
    if n_l > 0:
        w = pi / n_l
        d_label = np.where(lab, w * dpos, 0.0)
        d_corr = np.where(lab, -(w * dneg), 0.0)
    else:
        d_label, d_corr = np.zeros_like(g), np.zeros_like(g)
    if mode == SCENARIO_CC:
        d_dist = np.where(unl, -dneg / n_u, 0.0) if n_u > 0 else np.zeros_like(g)
    else:
        d_dist = -dneg / (n_l + n_u)
    return RiskComponents(r_label, r_dist, r_corr, d_label, d_dist, d_corr)


def nnpu_risk(comp: RiskComponents, beta: float = 0.0) -> tuple[float, bool]:
    """Non-negative estimate and the truncation trigger.

    The value truncates the signed part at zero:
    r_label + max(r_dist - r_corr, 0). The boolean reports whether the
    signed part fell to -beta or below, which is the condition that flips
    training onto the surrogate branch; beta affects only the trigger,
    never the value.
    """
    if beta < 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    negative_part = comp.r_dist - comp.r_corr
    value = comp.r_label + max(negative_part, 0.0)
    return value, negative_part <= -beta


def empirical_risk_ss_regrouped(
    g_labeled, g_unlabeled, pi: float, loss: LossSpec = LOGISTIC
) -> float:
    """Single-sample unbiased risk in its regrouped (plug-in) form.

    Computes (pi / n_l) * sum_L l(g) + (1 / n) * sum_U l(-g)
    - (pi - n_l / n) * (1 / n_l) * sum_L l(-g), where n = n_l + n_u. The
    labeled share of the pooled distribution term has been folded into the
    third coefficient, so the third term must be normalized per labeled
    row for the regrouping to stay exactly equal to the pooled form
    (``unbiased()`` of single-sample ``risk_components``). The two
    evaluations follow different groupings and serve as an arithmetic
    cross-check of each other.
    """
    pi = _check_pi(pi)
    gl = _as_scores(g_labeled, "g_labeled")
    gu = _as_scores(g_unlabeled, "g_unlabeled")
    n_l = gl.size
    if n_l == 0:
        raise DataError("regrouped form needs at least one labeled row")
    n = n_l + gu.size
    first = (pi / n_l) * float(np.sum(loss.value(gl)))
    middle = float(np.sum(loss.value(-gu))) / n if gu.size else 0.0
    third = (pi - n_l / n) * (1.0 / n_l) * float(np.sum(loss.value(-gl)))
    return first + middle - third
