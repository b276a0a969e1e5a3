"""Dataset containers, the synthetic Gaussian benchmark, CSV I/O and splits.

CSV schema (UTF-8, comma separated, ``.`` decimal point, LF line endings):
a header row with feature columns ``f0..f{d-1}`` holding float64 text,
an optional ``y`` column and an optional ``s`` column, both in {-1, 1}.
Floats are written with 17 significant digits so a save/load round trip
reproduces every value exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .numerics import Rng, as_matrix

# The two ways a PU sample can be drawn: single-sample and case-control.
SCENARIO_SS = "ss"
SCENARIO_CC = "cc"
SCENARIOS = (SCENARIO_SS, SCENARIO_CC)

_FLOAT_FMT = "{:.17g}"


def _as_labels(values, n: int, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.int64)
    if a.shape != (n,):
        raise DataError(f"{name} must have length {n}, got shape {a.shape}")
    if a.size and not np.all(np.isin(a, (-1, 1))):
        raise DataError(f"{name} entries must be -1 or +1")
    return a


@dataclass
class LabeledDataset:
    """Feature matrix ``x`` (n x d) with true class labels ``y`` in {-1, +1}.

    ``pi`` optionally records the known positive-class prior (set by the
    synthetic generator); when absent, consumers fall back to the
    empirical fraction.
    """

    x: np.ndarray
    y: np.ndarray
    pi: float | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x)
        self.y = _as_labels(self.y, self.x.shape[0], "y")
        if self.pi is not None and not 0.0 < self.pi < 1.0:
            raise ParameterError(f"pi must be in (0, 1), got {self.pi}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @cached_property
    def positive_rows(self) -> np.ndarray:
        """Indices of the rows with y = +1, found on first use and kept;
        ``y`` must not change after that."""
        return np.flatnonzero(self.y == 1)

    def empirical_prior(self) -> float:
        if self.n == 0:
            raise DataError("empirical prior of an empty dataset is undefined")
        return float(np.mean(self.y == 1))


@dataclass
class PUDataset:
    """Positive-unlabeled sample: features, label indicator ``s``, metadata.

    ``y_true`` is kept for evaluation only and is never consumed by
    training code. ``pi_is_empirical`` flags that ``pi`` was estimated
    from the source rather than supplied as a known prior.
    """

    x: np.ndarray
    s: np.ndarray
    y_true: np.ndarray | None
    pi: float
    scenario: str
    c: float
    pi_is_empirical: bool = False

    def __post_init__(self):
        self.x = as_matrix(self.x)
        self.s = _as_labels(self.s, self.x.shape[0], "s")
        if self.y_true is not None:
            self.y_true = _as_labels(self.y_true, self.x.shape[0], "y_true")
            if np.any((self.s == 1) & (self.y_true == -1)):
                raise DataError("a row with s=+1 must have y_true=+1")
        if not 0.0 < self.pi < 1.0:
            raise ParameterError(f"pi must be in (0, 1), got {self.pi}")
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"scenario must be one of {SCENARIOS}")
        if not 0.0 <= self.c <= 1.0:
            raise ParameterError(f"c must be in [0, 1], got {self.c}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_labeled(self) -> int:
        return int(np.sum(self.s == 1))


def gaussian_mixture(
    n: int,
    pi: float,
    mu_pos: float = 2.0,
    mu_neg: float = -2.0,
    sd: float = 1.0,
    dim: int = 1,
    rng: Rng | None = None,
) -> LabeledDataset:
    """Two-component isotropic Gaussian benchmark.

    Each row is positive with probability ``pi``; positives are drawn from
    N(mu_pos * 1, sd^2 I) and negatives from N(mu_neg * 1, sd^2 I), with the
    scalar mean replicated across all ``dim`` coordinates. The defaults
    (means +-2, unit variance, pi given) are the standard well-separated
    univariate configuration.
    """
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must be in (0, 1), got {pi}")
    if sd <= 0:
        raise ParameterError(f"sd must be > 0, got {sd}")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if n < 0:
        raise ParameterError("n must be >= 0")
    rng = rng if rng is not None else Rng(0)
    y = np.where(rng.bernoulli(pi, n), 1, -1).astype(np.int64)
    z = rng.normal(n * dim).reshape(n, dim)
    mu = np.where(y == 1, mu_pos, mu_neg).astype(np.float64)
    x = mu[:, None] + sd * z
    return LabeledDataset(x=x, y=y, pi=pi)


def train_test_split(
    dataset: LabeledDataset, train_fraction: float, rng: Rng
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint exhaustive partition into (train, test).

    The training side gets round(n * train_fraction) rows with ties going
    to training; the permutation is drawn from ``rng``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if dataset.n < 2:
        raise ParameterError("need at least 2 rows to split")
    n_train = int(math.floor(dataset.n * train_fraction + 0.5))
    perm = rng.permutation(dataset.n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        LabeledDataset(x=dataset.x[tr], y=dataset.y[tr], pi=dataset.pi),
        LabeledDataset(x=dataset.x[te], y=dataset.y[te], pi=dataset.pi),
    )


def _feature_header(d: int) -> list[str]:
    return [f"f{i}" for i in range(d)]


def save_csv(dataset: LabeledDataset | PUDataset, path) -> None:
    """Write a dataset in the package CSV schema.

    LabeledDataset emits feature columns plus ``y``; PUDataset emits
    features, ``y`` when ground truth is present, and ``s``.
    """
    if isinstance(dataset, PUDataset):
        labels = {"y": dataset.y_true, "s": dataset.s}
    elif isinstance(dataset, LabeledDataset):
        labels = {"y": dataset.y}
    else:
        raise TypeError(f"cannot save object of type {type(dataset)!r}")
    labels = {name: col for name, col in labels.items() if col is not None}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_feature_header(dataset.x.shape[1]) + list(labels))
        for i in range(dataset.x.shape[0]):
            row = [_FLOAT_FMT.format(v) for v in dataset.x[i]]
            row.extend(str(int(col[i])) for col in labels.values())
            w.writerow(row)


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a header row") from None
        return header, list(reader)


def _parse_columns(path, header, rows, want_y: bool, want_s: bool):
    feat_names = [h for h in header if h not in ("y", "s")]
    d = len(feat_names)
    if feat_names != _feature_header(d):
        raise FormatError(
            f"{path}: feature columns must be named f0..f{d - 1} in order, "
            f"got {feat_names}"
        )
    col_index = {name: i for i, name in enumerate(header)}
    for name, wanted in (("y", want_y), ("s", want_s)):
        if wanted and name not in col_index:
            raise FormatError(f"{path}: missing required column {name!r}")

    n = len(rows)
    x = np.empty((n, d), dtype=np.float64)
    labels = {name: np.empty(n, dtype=np.int64) for name in ("y", "s") if name in col_index}
    for r, row in enumerate(rows):
        line = r + 2  # 1-based file position; line 1 is the header
        if len(row) != len(header):
            raise FormatError(
                f"{path}: line {line}: expected {len(header)} cells, got {len(row)}"
            )
        for j, name in enumerate(feat_names):
            cell = row[col_index[name]]
            try:
                x[r, j] = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: line {line}: non-numeric value {cell!r} in column {name}"
                ) from None
        for name, out in labels.items():
            cell = row[col_index[name]]
            if cell not in ("-1", "1", "+1"):
                raise FormatError(
                    f"{path}: line {line}: column {name} must be -1 or 1, got {cell!r}"
                )
            out[r] = int(cell)
    return x, labels.get("y"), labels.get("s")


def load_csv(path) -> LabeledDataset:
    """Read a fully labeled dataset (requires the ``y`` column)."""
    header, rows = _read_rows(path)
    x, y, _ = _parse_columns(path, header, rows, want_y=True, want_s=False)
    return LabeledDataset(x=x, y=y)


def load_pu_csv(
    path,
    pi: float | None = None,
    scenario: str = SCENARIO_SS,
    c: float = 0.0,
) -> PUDataset:
    """Read a PU dataset (requires the ``s`` column).

    The CSV schema carries no distribution metadata, so the class prior
    and scenario tag must be supplied; if ``pi`` is omitted it is estimated
    from the ``y`` column when present.
    """
    header, rows = _read_rows(path)
    x, y, s = _parse_columns(path, header, rows, want_y=False, want_s=True)
    empirical = False
    if pi is None:
        if y is None:
            raise FormatError(
                f"{path}: no 'y' column and no pi supplied; cannot set the prior"
            )
        pi = float(np.mean(y == 1))
        empirical = True
    return PUDataset(
        x=x, s=s, y_true=y, pi=pi, scenario=scenario, c=c, pi_is_empirical=empirical
    )
