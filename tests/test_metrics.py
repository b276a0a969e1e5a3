"""Tests for confusion counts and percentage scores."""

import numpy as np
import pytest

from puerm.errors import DataError, ShapeError
from puerm.metrics import ConfusionCounts, confusion, scores
from puerm.numerics import Rng


def test_confusion_counts_hand_case():
    predicted = [1, 1, -1, -1, 1, -1]
    actual = [1, -1, -1, 1, 1, -1]
    c = confusion(predicted, actual)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 2, 1)
    assert c.total == 6


def test_confusion_matches_loop_oracle():
    rng = Rng(1)
    p = np.where(rng.bernoulli(0.4, 500), 1, -1)
    a = np.where(rng.bernoulli(0.6, 500), 1, -1)
    c = confusion(p, a)
    tp = fp = tn = fn = 0
    for pi, ai in zip(p, a):
        if pi == 1 and ai == 1:
            tp += 1
        elif pi == 1:
            fp += 1
        elif ai == -1:
            tn += 1
        else:
            fn += 1
    assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)


def test_confusion_validation():
    with pytest.raises(ShapeError):
        confusion([1, -1], [1, -1, 1])
    with pytest.raises(DataError):
        confusion([1, 0], [1, -1])
    with pytest.raises(DataError):  # checked before any cast to int
        confusion([1.7, -1], [1, -1])
    with pytest.raises(ShapeError):
        confusion([[1], [-1]], [1, -1])


def test_scores_balanced_hand_case():
    # tp=8 fp=2 tn=8 fn=2: accuracy, precision, recall and f1 all 80.00
    vals = scores(ConfusionCounts(tp=8, fp=2, tn=8, fn=2))
    assert vals == (80.0, 80.0, 80.0, 80.0)


def test_scores_formula_oracle():
    c = ConfusionCounts(tp=30, fp=10, tn=45, fn=15)
    accuracy, precision, recall, f1 = scores(c)
    assert abs(accuracy - 100 * 75 / 100) < 1e-12
    assert abs(precision - 100 * 30 / 40) < 1e-12
    assert abs(recall - 100 * 30 / 45) < 1e-12
    p, r = 30 / 40, 30 / 45
    assert abs(f1 - 100 * 2 * p * r / (p + r)) < 1e-12


def test_scores_zero_denominators():
    # all-negative predictions on all-negative truth: no positives anywhere
    vals = scores(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
    assert vals == (100.0, 0.0, 0.0, 0.0)
    # empty input
    assert scores(ConfusionCounts(0, 0, 0, 0)) == (0.0, 0.0, 0.0, 0.0)
