"""Confusion counts and percentage scores.

All scores are percentages in [0, 100] with the +1 class treated as
positive. Degenerate denominators (no predicted positives, no actual
positives, or an empty F1 denominator) yield 0 by convention so tables
stay well defined for collapsed classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _as_label_vector(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.int64)
    if a.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isin(a, (-1, 1))):
        raise DataError(f"{name} entries must be -1 or +1")
    return a


def confusion(predicted, actual) -> ConfusionCounts:
    """Standard counts with +1 as the positive class."""
    p = _as_label_vector(predicted, "predicted")
    a = _as_label_vector(actual, "actual")
    if p.shape != a.shape:
        raise ShapeError(
            f"length mismatch: predicted {p.shape} vs actual {a.shape}"
        )
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
