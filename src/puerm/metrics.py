"""Confusion counts and percentage scores.

All scores are percentages in [0, 100] with the +1 class treated as
positive. Degenerate denominators (no predicted positives, no actual
positives, or an empty F1 denominator) yield 0 by convention so tables
stay well defined for collapsed classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import _as_labels
from .errors import ShapeError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predicted, actual) -> ConfusionCounts:
    """Standard counts with +1 as the positive class, from two 1-D label
    vectors of one length (ShapeError) holding only -1 and +1 (DataError)."""
    p, a = np.asarray(predicted), np.asarray(actual)
    if p.ndim != 1 or p.shape != a.shape:
        raise ShapeError(
            f"predicted and actual must be 1-D of one length, got {p.shape} and {a.shape}"
        )
    p = _as_labels(p, p.size, "predicted")
    a = _as_labels(a, p.size, "actual")
    return ConfusionCounts(
        tp=int(np.sum((p == 1) & (a == 1))),
        fp=int(np.sum((p == 1) & (a == -1))),
        tn=int(np.sum((p == -1) & (a == -1))),
        fn=int(np.sum((p == -1) & (a == 1))),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def scores(c: ConfusionCounts) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) as percentages; 0 on empty denominators."""
    accuracy = _ratio(c.tp + c.tn, c.total)
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    f1 = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn)
    return 100.0 * accuracy, 100.0 * precision, 100.0 * recall, 100.0 * f1
