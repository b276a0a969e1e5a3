"""Dataset containers, the synthetic Gaussian benchmark, CSV I/O and splits.

CSV schema (UTF-8, comma separated, ``.`` decimal point, LF line endings):
a header row with feature columns ``f0..f{d-1}`` holding float64 text,
an optional ``y`` column and an optional ``s`` column, both in {-1, 1},
each column named once.
Floats are written with 17 significant digits so a save/load round trip
reproduces every value bit for bit.

``save_csv`` formats every row from one template and writes the file
atomically (a temporary file beside the target, then ``os.replace``), in
blocks of ``_SAVE_BLOCK`` rows, so the text it holds at once does not grow
with the file.
A file in the plain form ``save_csv`` writes is read by numpy's C parser
(``np.loadtxt``, with the label lookup as converters): a header line
with no ``"`` and no CR, then a non-empty body of only the bytes
``0-9 + - . e E , LF`` with no blank line. Any other file, and any file
that parser refuses or reads to a non-finite feature, goes to the
``csv.reader`` path. Both paths parse a float with the same C routine
CPython's ``float`` uses, so the arrays and errors never depend on the
path. The ``csv.reader`` path is one loop over the rows: it checks each
row's cell count, parses each feature with ``float``, looks up each label
and checks that the row's features are finite; the first bad cell, a
non-finite one too, raises its ``FormatError`` when its row is read.
Every ``FormatError`` names the file and, for a bad cell, its line and
column; lines are lines of the file, so a quoted cell that holds a line
break counts as more than one.

``gaussian_mixture`` and ``sampling.scar_label`` build +-1 labels from a
boolean mask in place (``_signs``), and ``gaussian_mixture`` takes each
row's mean from a two-entry ``np.take`` table. From about 10^4 rows on,
as in a ``synth`` of 2 * 10^4 rows or the 2 * 10^5-row draws of
``puerm check``, both give ``np.where``'s bytes about 4x faster; the
check's 4 * 10^5-row label pool is built with ``_signs`` too. At a few
thousand rows, a grid cell's pool, they are as fast as ``np.where``, which
per-batch code, at about a thousand entries, keeps.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, FormatError, ParameterError
from .numerics import Rng, _check_count, _check_finite, _check_pi, _check_sd, as_matrix

# The two ways a PU sample can be drawn: single-sample and case-control.
SCENARIO_SS = "ss"
SCENARIO_CC = "cc"
SCENARIOS = (SCENARIO_SS, SCENARIO_CC)

_FLOAT_FMT = "{:.17g}"
_SAVE_BLOCK = 2048  # rows save_csv formats and writes at a time
# Accepted label cells and the label each one stands for.
_LABEL_CELLS = {"-1": -1, "1": 1, "+1": 1}
# The bytes a plain-form body may hold, and how many are checked at a time.
_PLAIN_BYTES = b"0123456789+-.eE,\n"
_PLAIN_CHUNK = 1 << 18


def _check_scenario(scenario, name: str = "scenario") -> str:
    """``scenario``; ParameterError naming ``name`` unless it is in ``SCENARIOS``."""
    if scenario not in SCENARIOS:
        raise ParameterError(f"{name} must be one of {SCENARIOS}, got {scenario!r}")
    return scenario


def _signs(mask: np.ndarray) -> np.ndarray:
    """``np.where(mask, 1, -1)`` as int64, built in place from ``mask``."""
    labels = mask.astype(np.int64)
    labels *= 2
    labels -= 1
    return labels


def _as_labels(values, n: int, name: str) -> np.ndarray:
    """``values`` as an int64 label vector of length ``n``. The values are
    checked before the cast, so 1.7 is an error rather than 1."""
    a = np.asarray(values)
    if a.shape != (n,):
        raise DataError(f"{name} must have length {n}, got shape {a.shape}")
    if not ((a == 1) | (a == -1)).all():
        raise DataError(f"{name} entries must be -1 or +1")
    return a.astype(np.int64, copy=False)


@dataclass
class LabeledDataset:
    """Feature matrix ``x`` (n x d) with true class labels ``y`` in {-1, +1}.

    ``pi`` optionally records the known positive-class prior (set by the
    synthetic generator); when absent, ``prior`` falls back to the
    empirical fraction.
    """

    x: np.ndarray
    y: np.ndarray
    pi: float | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x)
        self.y = _as_labels(self.y, self.x.shape[0], "y")
        if self.pi is not None:
            _check_pi(self.pi)

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

    def prior(self) -> tuple[float, bool]:
        """(pi, estimated): the known prior and False, or else the fraction
        of rows with y = +1 and True."""
        if self.pi is not None:
            return self.pi, False
        if self.n == 0:
            raise DataError("empirical prior of an empty dataset is undefined")
        return float(np.mean(self.y == 1)), True


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
            if np.any(self.s > self.y_true):  # s=+1 where y_true=-1
                raise DataError("a row with s=+1 must have y_true=+1")
        _check_pi(self.pi)
        _check_scenario(self.scenario)
        if not 0.0 <= self.c <= 1.0:
            raise ParameterError(f"c must be in [0, 1], got {self.c}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.s == 1))


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
    _check_pi(pi)
    _check_sd(sd)
    _check_finite("mu_pos", mu_pos)
    _check_finite("mu_neg", mu_neg)
    _check_count("dim", dim, low=1)
    _check_count("n", n)
    rng = rng if rng is not None else Rng(0)
    positive = rng.bernoulli(pi, n)  # drawn before the features
    x = rng.normal(n * dim).reshape(n, dim)
    x *= sd
    x += np.take(np.array([mu_neg, mu_pos], dtype=np.float64), positive)[:, None]
    return LabeledDataset(x=x, y=_signs(positive), pi=pi)


def train_test_split(
    dataset: LabeledDataset, train_fraction: float, rng: Rng
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint exhaustive partition into (train, test).

    The training side gets round(n * train_fraction) rows with ties going
    to training; the permutation is drawn from ``rng``. A split that would
    leave either side empty raises ParameterError.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(math.floor(dataset.n * train_fraction + 0.5))
    if not 0 < n_train < dataset.n:
        raise ParameterError(
            f"splitting {dataset.n} rows at train_fraction {train_fraction} gives "
            f"{n_train} training and {dataset.n - n_train} test rows; neither may be empty"
        )
    perm = rng.permutation(dataset.n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        LabeledDataset(x=dataset.x[tr], y=dataset.y[tr], pi=dataset.pi),
        LabeledDataset(x=dataset.x[te], y=dataset.y[te], pi=dataset.pi),
    )


def _feature_header(d: int) -> list[str]:
    return [f"f{i}" for i in range(d)]


@contextlib.contextmanager
def _open_text(path):
    """``path`` open as UTF-8 text, line ends as they are (for ``csv``); a
    byte that is not UTF-8, or a ``csv.Error`` such as a cell over the
    module's field size limit, raises ``FormatError`` naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise FormatError(f"{path}: not UTF-8 text (byte {byte:#04x}: {exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV: {exc}") from None


def _write_atomically(path, lines) -> None:
    """Write ``lines`` to a new file beside ``path``, then rename it over
    ``path``: the target holds its old bytes or all the new ones, never a
    part, and a write that fails leaves no temporary file behind."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    # O_EXCL: never write through a file someone else created; 0o666
    # lets the umask set the mode, as a plain open() would.
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # here too: the temporary name is random
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        os.unlink(tmp)
        raise


def save_csv(dataset: LabeledDataset | PUDataset, path) -> None:
    """Write a dataset in the package CSV schema, atomically.

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
    d = dataset.x.shape[1]
    header = ",".join(_feature_header(d) + list(labels)) + "\n"
    row = ",".join([_FLOAT_FMT] * d + ["{:d}"] * len(labels)) + "\n"
    columns = [*dataset.x.T, *labels.values()]

    def blocks():
        yield header
        for i in range(0, dataset.n, _SAVE_BLOCK):
            cells = [col[i:i + _SAVE_BLOCK].tolist() for col in columns]
            yield "".join(itertools.starmap(row.format, zip(*cells)))

    _write_atomically(path, blocks())


def _read_plain(path, n_cols, feat_cols, label_cols):
    """(x, {label name: labels}) read by ``np.loadtxt`` from a file in the
    plain form, or None when the file is not in that form, the parser
    refuses it, it does not read to one row of ``n_cols`` columns per
    line or a feature reads as non-finite. ``feat_cols`` lists the
    feature columns in order and ``label_cols`` maps each label name to
    its column."""
    with open(path, "rb") as fh:
        head = fh.readline()
        # no body, or one that starts with a blank line: np.loadtxt warns
        # on a body of blank lines
        if b'"' in head or b"\r" in head or fh.peek(1)[:1] in (b"", b"\n"):
            return None
        body_start = fh.tell()
        lines, last = 0, b""
        while chunk := fh.read(_PLAIN_CHUNK):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
            lines += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            last = chunk
        lines += not last.endswith(b"\n")
        fh.seek(body_start)
        # A file handle, not the path, which np.loadtxt would open by its
        # suffix (.gz, a URL); an explicit encoding hands the converters str
        # on every numpy >= 1.24.
        converters = {j: _LABEL_CELLS.__getitem__ for j in label_cols.values()}
        try:
            a = np.loadtxt(
                fh, delimiter=",", comments=None, converters=converters,
                ndmin=2, encoding="utf-8",
            )
        except (ValueError, KeyError):
            return None
    if a.shape != (lines, n_cols):  # np.loadtxt skips blank lines
        return None
    x = a[:, feat_cols]
    if not np.isfinite(x).all():
        return None
    return x, {name: a[:, j].astype(np.int64) for name, j in label_cols.items()}


def _read_columns(path, want_y: bool, want_s: bool):
    """(x, y or None, s or None) from a file in the package CSV schema."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a header row") from None
        if len(set(header)) < len(header):
            twice = next(name for i, name in enumerate(header) if name in header[:i])
            raise FormatError(f"{path}: column {twice!r} appears more than once in the header")
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
        label_names = [name for name in ("y", "s") if name in col_index]
        plain = _read_plain(
            path,
            len(header),
            [col_index[name] for name in feat_names],
            {name: col_index[name] for name in label_names},
        )
        if plain is not None:
            x, labels = plain
            return x, labels.get("y"), labels.get("s")

        # One row at a time: the first bad cell raises its FormatError at once.
        features = [(col_index[name], name) for name in feat_names]
        labels = [(col_index[name], name, array("q")) for name in label_names]
        x = array("d")  # row-major, 8 bytes a cell
        n = 0
        line = reader.line_num + 1  # the first file line of the next row
        for row in reader:
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: line {line}: expected {len(header)} cells, got {len(row)}"
                )
            for j, name in features:
                try:
                    x.append(float(row[j]))
                except ValueError:
                    raise FormatError(
                        f"{path}: line {line}: non-numeric value {row[j]!r} in column {name}"
                    ) from None
            for j, name, values in labels:
                try:
                    values.append(_LABEL_CELLS[row[j]])
                except KeyError:
                    raise FormatError(
                        f"{path}: line {line}: column {name} must be -1 or 1, got {row[j]!r}"
                    ) from None
            # a finite row can still sum to inf, so look at each cell then
            if not math.isfinite(sum(x[n * d:])):
                for (j, name), v in zip(features, x[n * d:]):
                    if not math.isfinite(v):
                        raise FormatError(
                            f"{path}: line {line}: non-finite value {row[j]!r} in column {name}"
                        )
            n += 1
            line = reader.line_num + 1
    labels = {name: np.frombuffer(values, np.int64) for _, name, values in labels}
    return np.frombuffer(x).reshape(n, d), labels.get("y"), labels.get("s")


def load_csv(path, pi: float | None = None) -> LabeledDataset:
    """Read a fully labeled dataset (requires the ``y`` column), with the
    known prior ``pi`` when one is given."""
    x, y, _ = _read_columns(path, want_y=True, want_s=False)
    return LabeledDataset(x=x, y=y, pi=pi)


def load_pu_csv(
    path,
    pi: float | None = None,
    scenario: str = SCENARIO_SS,
    c: float = 0.0,
) -> PUDataset:
    """Read a PU dataset (requires the ``s`` column).

    The CSV schema carries no distribution metadata, so the class prior
    and scenario tag must be supplied; if ``pi`` is omitted it is estimated
    from the ``y`` column, as ``LabeledDataset.prior`` does, when the file
    has that column and rows.
    """
    x, y, s = _read_columns(path, want_y=False, want_s=True)
    empirical = False
    if pi is None:
        if y is None:
            raise FormatError(
                f"{path}: no 'y' column and no pi supplied; cannot set the prior"
            )
        if len(y) == 0:
            raise FormatError(f"{path}: no rows and no pi supplied; cannot set the prior")
        pi, empirical = LabeledDataset(x=x, y=y).prior()
    return PUDataset(
        x=x, s=s, y_true=y, pi=pi, scenario=scenario, c=c, pi_is_empirical=empirical
    )
