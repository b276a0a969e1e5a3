"""Tests for dataset containers, the synthetic generator, and CSV I/O."""

import builtins
import csv
import errno
import functools
import hashlib
import itertools
import math
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _no_child_process, _use_cpus
from oracles import peak_traced_bytes
from puerm import datasets, spread
from puerm.datasets import (
    SCENARIO_SS,
    LabeledDataset,
    PUDataset,
    gaussian_mixture,
    load_csv,
    load_pu_csv,
    save_csv,
    train_test_split,
)
from puerm.errors import DataError, FormatError, ParameterError, PuermError
from puerm.model import init, save_model
from puerm.numerics import Rng
from puerm.trainer import EpochTrace, save_trace


# ---------------------------------------------------------------------------
# containers


def test_labeled_dataset_basics():
    ds = LabeledDataset(x=[[0.0], [1.0], [2.0], [3.0]], y=[1, -1, 1, 1])
    assert ds.n == 4
    assert ds.dim == 1
    assert ds.prior() == (0.75, True)
    assert LabeledDataset(x=ds.x, y=ds.y, pi=0.5).prior() == (0.5, False)


def test_positive_rows_index_is_cached():
    ds = gaussian_mixture(500, 0.3, rng=Rng(4))
    assert np.array_equal(ds.positive_rows, np.flatnonzero(ds.y == 1))
    assert ds.positive_rows is ds.positive_rows
    empty = LabeledDataset(x=np.zeros((0, 2)), y=[])
    assert empty.positive_rows.shape == (0,)


def test_labeled_dataset_rejects_bad_labels():
    with pytest.raises(DataError):
        LabeledDataset(x=[[0.0], [1.0]], y=[1, 2])
    with pytest.raises(DataError):
        LabeledDataset(x=[[0.0], [1.0]], y=[1])
    with pytest.raises(ParameterError):
        LabeledDataset(x=[[0.0], [1.0]], y=[1, -1], pi=1.0)


def test_labels_must_be_exactly_plus_or_minus_one():
    # checked before the int cast, which would turn 1.7 into 1
    with pytest.raises(DataError, match="y entries must be -1 or \\+1"):
        LabeledDataset(x=np.zeros((3, 1)), y=[1.7, -1.2, 1])
    with pytest.raises(DataError, match="s entries"):
        PUDataset(
            x=np.zeros((2, 1)), s=[1, -0.5], y_true=None, pi=0.5, scenario=SCENARIO_SS, c=0.5
        )
    with pytest.raises(DataError, match="y entries"):
        LabeledDataset(x=np.zeros((2, 1)), y=[1, np.nan])
    ds = LabeledDataset(x=np.zeros((3, 1)), y=[1.0, -1.0, 1.0])
    assert ds.y.dtype == np.int64
    assert ds.y.tolist() == [1, -1, 1]


def test_pu_dataset_consistency_check():
    # a labeled row must be a true positive
    with pytest.raises(DataError):
        PUDataset(
            x=[[0.0], [1.0]],
            s=[1, -1],
            y_true=[-1, 1],
            pi=0.5,
            scenario=SCENARIO_SS,
            c=0.5,
        )


def test_empirical_prior_of_no_rows_is_refused_unless_the_prior_is_known():
    def empty(pi=None):
        return LabeledDataset(x=np.zeros((0, 1)), y=np.zeros(0), pi=pi)

    with pytest.raises(DataError, match="^empirical prior of an empty dataset is undefined$"):
        empty().prior()
    assert empty(0.3).prior() == (0.3, False)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("scenario", "pn", "scenario must be one of ('ss', 'cc'), got 'pn'"),
        ("c", 1.5, "c must be in [0, 1], got 1.5"),
        ("c", -0.1, "c must be in [0, 1], got -0.1"),
        ("c", math.nan, "c must be in [0, 1], got nan"),
    ],
)
def test_pu_dataset_refuses_an_unknown_scenario_or_a_c_outside_0_1(field, value, message):
    fields = dict(x=[[0.0]], s=[1], y_true=[1], pi=0.5, scenario=SCENARIO_SS, c=0.5)
    with pytest.raises(ParameterError) as err:
        PUDataset(**{**fields, field: value})
    assert str(err.value) == message
    assert PUDataset(**{**fields, field: fields[field]}).n == 1


def test_split_spec_validation():
    ds = gaussian_mixture(10, 0.5, rng=Rng(0))
    with pytest.raises(ParameterError):
        train_test_split(ds, 0.0, Rng(0))
    with pytest.raises(ParameterError):
        train_test_split(ds, 1.0, Rng(0))
    # a fraction strictly inside (0, 1) can still round one side to no rows
    with pytest.raises(ParameterError, match="40 training and 0 test rows"):
        train_test_split(gaussian_mixture(40, 0.5, rng=Rng(0)), 0.99, Rng(0))
    with pytest.raises(ParameterError, match="0 training and 10 test rows"):
        train_test_split(ds, 0.01, Rng(0))
    with pytest.raises(ParameterError, match="1 training and 0 test rows"):
        train_test_split(gaussian_mixture(1, 0.5, rng=Rng(0)), 0.5, Rng(0))


# ---------------------------------------------------------------------------
# gaussian_mixture


def test_mixture_shapes_and_label_domain():
    ds = gaussian_mixture(500, 0.5, rng=Rng(1))
    assert ds.x.shape == (500, 1)
    assert set(ds.y.tolist()) <= {-1, 1}
    assert ds.pi == 0.5


def test_mixture_prior_within_binomial_bound():
    n = 100_000
    ds = gaussian_mixture(n, 0.3, rng=Rng(2))
    se = math.sqrt(0.3 * 0.7 / n)
    pi, estimated = LabeledDataset(x=ds.x, y=ds.y).prior()
    assert estimated and abs(pi - 0.3) < 4 * se


def test_mixture_cluster_means():
    ds = gaussian_mixture(200_000, 0.5, mu_pos=2.0, mu_neg=-2.0, rng=Rng(3))
    pos = ds.x[ds.y == 1, 0]
    neg = ds.x[ds.y == -1, 0]
    assert abs(pos.mean() - 2.0) < 4 / math.sqrt(pos.size)
    assert abs(neg.mean() + 2.0) < 4 / math.sqrt(neg.size)
    assert abs(pos.std() - 1.0) < 0.02


def test_mixture_multidim_replicates_means():
    ds = gaussian_mixture(50_000, 0.5, dim=3, rng=Rng(4))
    assert ds.x.shape == (50_000, 3)
    pos = ds.x[ds.y == 1]
    for j in range(3):
        assert abs(pos[:, j].mean() - 2.0) < 4 / math.sqrt(pos.shape[0])


def test_mixture_sd_scaling():
    ds = gaussian_mixture(100_000, 0.5, sd=0.25, rng=Rng(5))
    pos = ds.x[ds.y == 1, 0]
    assert abs(pos.std() - 0.25) < 0.01


def test_mixture_validation():
    with pytest.raises(ParameterError):
        gaussian_mixture(10, 0.0)
    with pytest.raises(ParameterError):
        gaussian_mixture(10, 0.5, sd=-1.0)
    with pytest.raises(ParameterError):
        gaussian_mixture(10, 0.5, dim=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sd": math.nan}, "sd must be > 0, got nan"),
        ({"sd": math.inf}, "sd must be finite, got inf"),
        ({"mu_pos": math.inf}, "mu_pos must be finite, got inf"),
        ({"mu_neg": -math.inf}, "mu_neg must be finite, got -inf"),
        ({"mu_neg": math.nan}, "mu_neg must be finite, got nan"),
    ],
)
@pytest.mark.parametrize("n", [0, 10])
def test_mixture_refuses_non_finite_settings(n, kwargs, message):
    with pytest.raises(ParameterError, match=message):
        gaussian_mixture(n, 0.5, **kwargs)


def test_mixture_deterministic_given_rng():
    a = gaussian_mixture(100, 0.5, rng=Rng(6))
    b = gaussian_mixture(100, 0.5, rng=Rng(6))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def _sha256(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def test_mixture_frozen():
    # the pool of ``puerm check``; frozen so that the in-place transform and
    # shift keep every bit of the draw
    ds = gaussian_mixture(400_000, 0.5, rng=Rng(20240817).child(2000))
    assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
    assert _sha256(ds.x) == "957d240bf04ae6e6edc628300a7a0d99762296c6fd291f0054849980a7d5d149"
    assert _sha256(ds.y) == "38e6230c016e66ecd4fb98eaee20a5050822f7c989eeba737f5316f3e7d1310b"
    ds = gaussian_mixture(2_001, 0.3, mu_pos=1.5, mu_neg=-0.5, sd=2.5, dim=3, rng=Rng(8))
    assert hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest() == (
        "eab944eb246e59f10f2a4ad17ed48f93210e9504cb14d0dbd9f85a2e1615d1b4"
    )


def test_mixture_with_integer_means_frozen():
    # integer means once made an int64 mean column; the float table must
    # shift every row by the same value
    ds = gaussian_mixture(3_001, 0.4, mu_pos=3, mu_neg=-1, sd=0.5, dim=2, rng=Rng(9))
    assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
    assert hashlib.sha256(ds.x.tobytes() + ds.y.tobytes()).hexdigest() == (
        "a46b408043211d5719a12d11efe69e41a2761ce6426c798ab1c83ab0c0a49a5b"
    )


def test_mixture_holds_at_most_twice_its_output():
    ds, peak = peak_traced_bytes(lambda: gaussian_mixture(400_000, 0.5, rng=Rng(3)))
    assert peak <= 2 * (ds.x.nbytes + ds.y.nbytes)


# ---------------------------------------------------------------------------
# train_test_split


def test_split_is_a_partition():
    ds = gaussian_mixture(103, 0.5, rng=Rng(7))
    tr, te = train_test_split(ds, 0.8, Rng(0))
    assert tr.n + te.n == ds.n
    # every original row appears exactly once across the two sides
    joined = np.vstack([tr.x, te.x])
    assert np.array_equal(
        np.sort(joined[:, 0]), np.sort(ds.x[:, 0])
    )


def test_split_sizes_round_half_up():
    ds = gaussian_mixture(10, 0.5, rng=Rng(8))
    tr, te = train_test_split(ds, 0.25, Rng(0))
    # 10 * 0.25 = 2.5 rounds to 3 (ties go to the training side)
    assert tr.n == 3
    assert te.n == 7


@pytest.mark.parametrize(
    "n, fraction, n_train",
    [(2, 0.5, 1), (10, 0.05, 1), (40, 0.02, 1), (40, 0.98, 39)],
)
def test_split_keeps_a_single_row_side(n, fraction, n_train):
    # the empty-side check must not refuse a split that leaves one row
    tr, te = train_test_split(gaussian_mixture(n, 0.5, rng=Rng(8)), fraction, Rng(0))
    assert (tr.n, te.n) == (n_train, n - n_train)


def test_split_deterministic_by_seed():
    ds = gaussian_mixture(50, 0.5, rng=Rng(9))
    tr1, _ = train_test_split(ds, 0.8, Rng(3))
    tr2, _ = train_test_split(ds, 0.8, Rng(3))
    tr3, _ = train_test_split(ds, 0.8, Rng(4))
    assert np.array_equal(tr1.x, tr2.x)
    assert not np.array_equal(tr1.x, tr3.x)


# ---------------------------------------------------------------------------
# CSV round trips


def test_labeled_csv_round_trip_is_exact(tmp_path):
    ds = gaussian_mixture(64, 0.5, dim=2, rng=Rng(10))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


def test_pu_csv_round_trip_is_exact(tmp_path):
    ds = PUDataset(
        x=[[0.125], [1.5], [-2.75]],
        s=[1, -1, -1],
        y_true=[1, 1, -1],
        pi=0.5,
        scenario=SCENARIO_SS,
        c=0.7,
    )
    path = tmp_path / "pu.csv"
    save_csv(ds, path)
    back = load_pu_csv(path, pi=0.5, scenario=SCENARIO_SS, c=0.7)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.s, ds.s)
    assert np.array_equal(back.y_true, ds.y_true)
    assert not back.pi_is_empirical


def _one_shot_csv(dataset) -> bytes:
    """The file ``save_csv`` writes, formatted in one pass over all rows."""
    labels = {"y": dataset.y} if isinstance(dataset, LabeledDataset) else {
        "y": dataset.y_true, "s": dataset.s}
    labels = {name: col for name, col in labels.items() if col is not None}
    d = dataset.x.shape[1]
    header = ",".join([f"f{i}" for i in range(d)] + list(labels)) + "\n"
    row = ",".join(["{:.17g}"] * d + ["{:d}"] * len(labels)) + "\n"
    columns = [*dataset.x.T.tolist(), *(col.tolist() for col in labels.values())]
    return (header + "".join(itertools.starmap(row.format, zip(*columns)))).encode()


def test_save_csv_in_blocks_writes_the_one_shot_bytes(tmp_path, monkeypatch):
    b = datasets._SAVE_BLOCK
    path = tmp_path / "d.csv"
    monkeypatch.setattr(datasets, "_SPREAD_BYTES", 0)  # a block a process
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 3, 4 * b + 1):
            ds = gaussian_mixture(n, 0.5, dim=2, rng=Rng(n))
            pu = PUDataset(x=ds.x, s=np.where(np.arange(n) % 3 == 0, ds.y, -1), y_true=ds.y,
                           pi=0.5, scenario=SCENARIO_SS, c=0.5)
            bare = PUDataset(x=ds.x, s=pu.s, y_true=None, pi=0.5, scenario=SCENARIO_SS, c=0.5)
            for dataset in (ds, pu, bare):
                save_csv(dataset, path)
                assert path.read_bytes() == _one_shot_csv(dataset)
        assert _no_child_process()


@pytest.mark.parametrize("n", [20_000, 60_000])
def test_save_csv_holds_a_bounded_amount_of_text(tmp_path, monkeypatch, n):
    # about two blocks of text at a time, whatever the size of the file and
    # however many processes format them
    ds = gaussian_mixture(n, 0.5, dim=10, rng=Rng(1))
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        _, peak = peak_traced_bytes(lambda: save_csv(ds, tmp_path / "d.csv"))
        assert peak <= 3 * 2**20


def test_csv_files_fork_a_process_only_for_each_spread_size_of_text(
    tmp_path, monkeypatch, three_cpus
):
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    path = tmp_path / "d.csv"
    # several blocks and ranges, but under twice _SPREAD_BYTES: one process
    small = gaussian_mixture(3 * datasets._SAVE_BLOCK, 0.5, dim=10, rng=Rng(5))
    save_csv(small, path)
    assert datasets._PLAIN_CHUNK < path.stat().st_size < 2 * datasets._SPREAD_BYTES
    assert load_csv(path).x.tobytes() == small.x.tobytes()
    assert forks == []
    # over three times _SPREAD_BYTES: every usable CPU, to save and to read
    large = gaussian_mixture(20_000, 0.5, dim=10, rng=Rng(6))
    save_csv(large, path)
    assert path.stat().st_size > 3 * datasets._SPREAD_BYTES
    assert len(forks) == 2
    assert load_csv(path).x.tobytes() == large.x.tobytes()
    assert len(forks) == 4
    assert _no_child_process()


def test_pu_csv_empirical_prior_fallback(tmp_path):
    ds = PUDataset(
        x=[[0.0], [1.0], [2.0], [3.0]],
        s=[1, -1, -1, -1],
        y_true=[1, 1, -1, -1],
        pi=0.5,
        scenario=SCENARIO_SS,
        c=0.5,
    )
    path = tmp_path / "pu.csv"
    save_csv(ds, path)
    back = load_pu_csv(path, scenario=SCENARIO_SS, c=0.5)
    assert back.pi_is_empirical
    assert back.pi == 0.5  # 2 of 4 true positives


def test_pu_csv_without_a_y_column_or_pi_is_a_format_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("f0,s\n0.5,1\n-0.5,-1\n")
    with pytest.raises(FormatError) as err:
        load_pu_csv(path)
    assert str(err.value) == f"{path}: no 'y' column and no pi supplied; cannot set the prior"
    pu = load_pu_csv(path, pi=0.4)
    assert (pu.pi, pu.pi_is_empirical, pu.y_true) == (0.4, False, None)


@pytest.mark.parametrize("load", [load_csv, load_pu_csv])
def test_an_empty_csv_file_is_a_format_error(tmp_path, load):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(FormatError) as err:
        load(path, pi=0.5)
    assert str(err.value) == f"{path}: empty file, expected a header row"


def test_save_csv_refuses_an_object_that_is_not_a_dataset(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(TypeError, match=re.escape("cannot save object of type <class 'dict'>")):
        save_csv({"x": [[0.0]], "y": [1]}, path)
    assert list(tmp_path.iterdir()) == []


def test_pu_csv_without_rows_or_pi_is_a_format_error(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("f0,y,s\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice"
        with pytest.raises(FormatError) as err:
            load_pu_csv(path)
        assert str(err.value) == f"{path}: no rows and no pi supplied; cannot set the prior"
        assert load_pu_csv(path, pi=0.5).n == 0


def test_load_csv_reports_offending_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,y\n0.5,1\noops,1\n")
    with pytest.raises(FormatError) as err:
        load_csv(path)
    assert "line 3" in str(err.value)


def test_load_csv_requires_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f0,f1\n0.5,1.0\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,y\n0.5,1\n0.25\n")
    with pytest.raises(FormatError):
        load_csv(path)


@pytest.mark.parametrize(
    "load, text, column",
    [
        (load_csv, "f0,y,y\n0.5,1,-1\n", "y"),  # numpy's parser would read the body
        (load_csv, 'f0,y,y\n"0.5",1,-1\n', "y"),  # the csv.reader loop would
        (functools.partial(load_pu_csv, pi=0.5), "f0,s,y,s\n0.5,1,1,-1\n", "s"),
        (load_csv, "f0,f0,y\n0.5,0.5,1\n", "f0"),
    ],
    ids=["numpy-path", "csv-reader-path", "pu-s", "feature"],
)
def test_a_header_that_names_a_column_twice_is_a_format_error(tmp_path, load, text, column):
    # which copy a reader took would otherwise be its choice, not the file's
    path = tmp_path / "twice.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value) == f"{path}: column {column!r} appears more than once in the header"


# Every finite float64, -0.0, subnormals and +-max included.
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _saved_sets(draw):
    """(x, y, s) with n in 0..30 and dim in 1..4; ``s`` labels only true positives."""
    n = draw(st.integers(0, 30))
    dim = draw(st.integers(1, 4))
    x = np.array(draw(st.lists(FINITE, min_size=n * dim, max_size=n * dim)), dtype=np.float64)
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)), dtype=np.int64)
    picked = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    s = np.where(picked & (y == 1), 1, -1).astype(np.int64)
    return x.reshape(n, dim), y, s


@settings(max_examples=200, deadline=None)
@given(_saved_sets(), st.booleans())
@example(
    (np.array([[-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]]),
     np.array([1]), np.array([1])),
    True,
)
def test_csv_round_trip_is_bit_exact_for_any_finite_float(data, with_y_true):
    x, y, s = data
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "d.csv")
        save_csv(LabeledDataset(x=x, y=y), path)
        back = load_csv(path)
        assert back.x.shape == x.shape
        assert back.x.tobytes() == x.tobytes()
        assert back.y.tobytes() == y.tobytes()

        pu = PUDataset(x=x, s=s, y_true=y if with_y_true else None, pi=0.5,
                       scenario=SCENARIO_SS, c=0.5)
        save_csv(pu, path)
        back = load_pu_csv(path, pi=0.5)
        assert back.x.shape == x.shape
        assert back.x.tobytes() == x.tobytes()
        assert back.s.tobytes() == s.tobytes()
        if with_y_true:
            assert back.y_true.tobytes() == y.tobytes()
        else:
            assert back.y_true is None


# (file text, loaded (x, y) or the FormatError text after "<file>: "). The
# expected values are what the row-by-row loader this module used to have
# returned or raised for the same files.
AWKWARD_FILES = {
    "quoted": ('f0,"y"\n"1.5",1\n"-2",-1\n', ([[1.5], [-2.0]], [1, -1])),
    "crlf": ("f0,y\r\n1.5,1\r\n-2,-1\r\n", ([[1.5], [-2.0]], [1, -1])),
    "blank_line": ("f0,y\n1.5,1\n\n-2,-1\n", "line 3: expected 2 cells, got 0"),
    "trailing_blank_line": ("f0,y\n1.5,1\n\n", "line 3: expected 2 cells, got 0"),
    "no_final_newline": ("f0,y\n1.5,1\n-2,-1", ([[1.5], [-2.0]], [1, -1])),
    "plus_one_label": ("f0,y\n1.5,+1\n-2,-1\n", ([[1.5], [-2.0]], [1, -1])),
    "space_before_float": ("f0,y\n 1.5,1\n-2,-1\n", ([[1.5], [-2.0]], [1, -1])),
    "underscore_in_float": ("f0,y\n1_0,1\n-2,-1\n", ([[10.0], [-2.0]], [1, -1])),
    "float_label": ("f0,y\n1.5,1.0\n-2,-1\n", "line 2: column y must be -1 or 1, got '1.0'"),
    "ragged_row": ("f0,y\n1.5,1\n-2\n", "line 3: expected 2 cells, got 1"),
    "header_only": ("f0,y\n", (np.zeros((0, 1)), [])),
    "non_numeric": ("f0,y\n0.5,1\noops,1\n", "line 3: non-numeric value 'oops' in column f0"),
    # the first bad row wins, a non-finite one too
    "nan_then_non_numeric": (
        "f0,y\nnan,1\noops,-1\n", "line 2: non-finite value 'nan' in column f0"
    ),
    "inf_then_bad_label": (
        "f0,y\n1.5,1\n-inf,1\n-2,0\n", "line 3: non-finite value '-inf' in column f0"
    ),
    # a line break inside a quoted cell moves the later rows down a line
    "newline_in_quoted_cell": (
        'f0,y\n"1.5\n",1\noops,1\n', "line 4: non-numeric value 'oops' in column f0"
    ),
    "crlf_in_quoted_cell": (
        'f0,y\r\n"1.5\r\n",1\r\n-2,-1\r\n-2,0\r\n',
        "line 5: column y must be -1 or 1, got '0'",
    ),
    "cr_in_quoted_cell": ('f0,y\n"1.5\r",1\n-2\n', "line 4: expected 2 cells, got 1"),
    "two_newlines_in_quoted_cell": (
        'f0,y\n1,1\n"2\n\n",1\nnan,1\n', "line 6: non-finite value 'nan' in column f0"
    ),
    # files in the plain form, which numpy's parser reads or hands back
    "plain_exponents": ("f0,y\n1e-3,1\n-2.5E+2,-1\n", ([[1e-3], [-250.0]], [1, -1])),
    "plain_label_first": ("y,f0\n1,1.5\n-1,-2\n", ([[1.5], [-2.0]], [1, -1])),
    "plain_overflow": ("f0,y\n1.5,1\n1e999,-1\n", "line 3: non-finite value '1e999' in column f0"),
    "plain_wide_rows": ("f0,y\n1.5,1,1\n-2,-1,1\n", "line 2: expected 2 cells, got 3"),
    "plain_empty_cell": ("f0,y\n1.5,1\n,-1\n", "line 3: non-numeric value '' in column f0"),
    "plain_bad_float": ("f0,y\n1.5,1\n1e+,-1\n", "line 3: non-numeric value '1e+' in column f0"),
    "plain_zero_label": ("f0,y\n1.5,1\n-2,0\n", "line 3: column y must be -1 or 1, got '0'"),
    "plain_blank_first_row": ("f0,y\n\n1.5,1\n", "line 2: expected 2 cells, got 0"),
    "plain_blank_body": ("f0,y\n\n\n", "line 2: expected 2 cells, got 0"),
    "plain_body_after_a_cr": ("f0,y\r1.5,1\n-2,-1\n", ([[1.5], [-2.0]], [1, -1])),
    "zero_features_crlf": ("y\r\n1\r\n-1\r\n", (np.zeros((2, 0)), [1, -1])),
}


def _with_good_rows_first(text, expected, k):
    """``text`` with ``k`` valid rows put right after its header, each ended
    like the header line, and what loading that file gives: ``k`` rows of
    0.25 features and label -1 first, or the error ``k`` lines further down."""
    header, eol = re.match(r"([^\r\n]*)(\r\n|\r|\n)", text).groups()
    names = next(csv.reader([header]))
    row = ",".join("-1" if name in ("y", "s") else "0.25" for name in names) + eol
    text = header + eol + row * k + text[len(header) + len(eol):]
    if isinstance(expected, str):
        return text, re.sub(r"^line (\d+)", lambda m: f"line {int(m[1]) + k}", expected)
    x = np.asarray(expected[0], dtype=np.float64)
    return text, (np.vstack([np.full((k, x.shape[1]), 0.25), x]), [-1] * k + expected[1])


@pytest.mark.filterwarnings("error::UserWarning")  # np.loadtxt warns on a file with no data
@pytest.mark.parametrize("numpy_reader", [True, False], ids=["numpy_first", "csv_only"])
@pytest.mark.parametrize("good_rows_first", [0, 1, 2])
@pytest.mark.parametrize("text, expected", AWKWARD_FILES.values(), ids=AWKWARD_FILES)
def test_load_csv_awkward_files(tmp_path, monkeypatch, text, expected, good_rows_first,
                                numpy_reader):
    # good rows before the awkward ones check that the row loop's line
    # numbers and its per-row non-finite check follow the row it is on
    text, expected = _with_good_rows_first(text, expected, good_rows_first)
    if not numpy_reader:  # every file goes to the csv.reader path
        monkeypatch.setattr(datasets, "_read_plain", lambda *args: None)
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(FormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {expected}"
        return
    ds = load_csv(path)
    want_x = np.asarray(expected[0], dtype=np.float64)
    assert ds.x.shape == want_x.shape
    assert ds.x.tobytes() == want_x.tobytes()
    assert ds.y.tolist() == expected[1]


def test_save_csv_files_take_the_numpy_path(tmp_path, monkeypatch):
    read_plain = datasets._read_plain
    taken = []

    def spy(*args):
        taken.append(read_plain(*args) is not None)
        return None  # the csv.reader path then reads the file too

    monkeypatch.setattr(datasets, "_read_plain", spy)
    path = tmp_path / "d.csv"
    for n in (1, 8195):
        ds = gaussian_mixture(n, 0.5, dim=3, rng=Rng(n))
        save_csv(ds, path)
        load_csv(path)
        pu = PUDataset(x=ds.x, s=-np.ones(n, dtype=np.int64), y_true=ds.y, pi=0.5,
                       scenario=SCENARIO_SS, c=0.5)
        save_csv(pu, path)
        load_pu_csv(path, pi=0.5)
        pu.y_true = None
        save_csv(pu, path)
        load_pu_csv(path, pi=0.5)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        load_pu_csv(path, pi=0.5)
    assert taken == [True] * 8


# The characters of a plain-form cell, and text that may throw a reader off.
_PLAIN_CELL_CHARS = "0123456789+-.eE"
# "\udce9" is written as the byte 0xe9, which is not UTF-8 (surrogateescape).
_AWKWARD_TEXT = ['"', "\r", "\r\n", " ", "\t", "_", "nan", "inf", "#", "x", "\u00e9", "\udce9", ",",
                 "\n", "\n\n"]


def _cells(column):
    """Mostly what save_csv writes in ``column``; one cell in ten is any
    text from the plain alphabet."""
    usual = (
        st.sampled_from(["1", "-1", "+1"])
        if column in ("y", "s")
        else FINITE.map(datasets._FLOAT_FMT.format)
    )
    return st.integers(0, 9).flatmap(
        lambda k: usual if k else st.text(_PLAIN_CELL_CHARS, max_size=5)
    )


@st.composite
def _csv_texts(draw):
    """A header and rows of cells, with a few awkward strings put in anywhere."""
    header = draw(st.sampled_from(["f0,y", "f0,f1,y", "f0,y,s", "y,f0,s", "f0,s", "f0,y,y"]))
    rows = draw(st.lists(st.tuples(*map(_cells, header.split(","))), max_size=5))
    text = header + "\n" + "\n".join(map(",".join, rows)) + draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_AWKWARD_TEXT)) + text[at:]
    return text


def _load_outcomes(path):
    """What load_csv and load_pu_csv give for ``path``: the arrays' shapes
    and bytes, or the error's type and text."""
    out = []
    for load in (load_csv, lambda p: load_pu_csv(p, pi=0.5)):
        try:
            ds = load(path)
        except PuermError as exc:
            out.append((type(exc), str(exc)))
            continue
        labels = (ds.y,) if isinstance(ds, LabeledDataset) else (ds.s, ds.y_true)
        out.append((ds.x.shape, ds.x.tobytes(), *(a if a is None else a.tobytes() for a in labels)))
    return out


@pytest.mark.filterwarnings("error::UserWarning")  # np.loadtxt warns on a file with no data
@settings(max_examples=300, deadline=None)
@given(_csv_texts(), st.sampled_from([1, 2, 5, datasets._PLAIN_CHUNK]), st.sampled_from([1, 3]))
@example("f0,y\n1.5,1\n\n-2,-1\n", 1, 1)
@example("f0,y\n1.5,1\n\n-2,-1\n", 5, 3)
@example("f0,y\n1.5,1\n-2,-1\n\n", 2, 3)  # a last range of one blank line
@example("f0,y\n1.5,1\n-2,-1\n-2,-1", 1, 3)  # no line end after the last row
@example("f0,y\n1.5,1\n-2,-1\n\udce9,1\n", 1, 3)  # not UTF-8 in the last range
@example("f0,y\n1.5,1\n-2,-1\n-2,\"1\"\n", 1, 3)
@example("f0,y\n1.5,1\r\n-2,-1\n", 5, 3)
def test_both_readers_give_the_same_arrays_or_errors(text, chunk, cpus):
    # with a range of a few bytes, on up to 3 processes, awkward text falls at
    # or next to a cut between two ranges
    with (
        tempfile.TemporaryDirectory() as where,
        mock.patch.object(datasets, "_PLAIN_CHUNK", chunk),
        mock.patch.object(datasets, "_SPREAD_BYTES", 0),  # a range a process
        mock.patch.object(spread, "_usable_cpus", lambda: cpus),
    ):
        path = os.path.join(where, "d.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8", "surrogateescape"))
        numpy_first = _load_outcomes(path)
        with mock.patch.object(datasets, "_read_plain", lambda *args: None):
            assert _load_outcomes(path) == numpy_first
    assert _no_child_process()


def test_csv_spanning_several_blocks(tmp_path):
    n = 8195
    ds = gaussian_mixture(n, 0.5, dim=2, rng=Rng(13))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.x.tobytes() == ds.x.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()
    lines = path.read_text().splitlines(keepends=True)
    # a non-finite cell in the first block, a bad label in the last row:
    # the first bad row is reported
    lines[1] = "nan," + lines[1].split(",", 1)[1]
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",2\n"
    path.write_text("".join(lines))
    with pytest.raises(FormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: line 2: non-finite value 'nan' in column f0"
    # with the label mended, the first of two non-finite cells is reported
    lines[-1] = "inf," + lines[-1].split(",", 1)[1].rsplit(",", 1)[0] + ",1\n"
    path.write_text("".join(lines))
    with pytest.raises(FormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: line 2: non-finite value 'nan' in column f0"


def test_load_pu_csv_reports_bad_s_label(tmp_path):
    path = tmp_path / "pu.csv"
    path.write_text("f0,y,s\n1.5,1,1\n-2,-1,0\n")
    with pytest.raises(FormatError) as err:
        load_pu_csv(path, pi=0.5)
    assert str(err.value) == f"{path}: line 3: column s must be -1 or 1, got '0'"


@pytest.mark.parametrize(
    "text, where",
    [
        ("f0,y\n1.5,1\nnan,-1\n", "line 3: non-finite value 'nan' in column f0"),
        ("f0,f1,y\n1.5,2,1\n-2,-inf,-1\n", "line 3: non-finite value '-inf' in column f1"),
        ("f0,f1,y\n1e400,inf,1\n", "line 2: non-finite value '1e400' in column f0"),
    ],
    ids=["nan", "minus_inf_in_f1", "overflow"],
)
def test_non_finite_cell_is_a_format_error(tmp_path, text, where):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: {where}"
    pu_path = tmp_path / "pu.csv"
    pu_path.write_text(text.replace(",y\n", ",y,s\n").replace("1\n", "1,-1\n"))
    with pytest.raises(FormatError) as err:
        load_pu_csv(pu_path)
    assert str(err.value) == f"{pu_path}: {where}"


class _DiskFillsUp:
    """A file that takes its first item (a CSV header), then at most
    ``BUDGET`` more characters: it writes the part of an item that fits and
    fails as a full disk would."""

    BUDGET = 100

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, lines):
        lines = iter(lines)
        self.fh.write(next(lines, ""))
        budget = self.BUDGET
        for line in lines:
            self.fh.write(line[:budget])
            if len(line) > budget:
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")
            budget -= len(line)


def test_save_csv_failing_midway_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    save_csv(gaussian_mixture(40, 0.5, rng=Rng(11)), path)
    before = path.read_bytes()
    monkeypatch.setattr(
        datasets, "open", lambda *a, **k: _DiskFillsUp(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(OSError):
        save_csv(gaussian_mixture(40, 0.5, rng=Rng(12)), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["d.csv"]


@pytest.mark.parametrize("budget_blocks", [0, 2.5])
def test_save_csv_failing_midway_on_several_processes_leaves_the_old_file(
    tmp_path, monkeypatch, three_cpus, budget_blocks
):
    # the disk fills up in the first block, or in one a worker formatted
    monkeypatch.setattr(datasets, "_SPREAD_BYTES", 0)  # a block a process
    path = tmp_path / "d.csv"
    n = 4 * datasets._SAVE_BLOCK + 5
    save_csv(gaussian_mixture(n, 0.5, rng=Rng(11)), path)
    before = path.read_bytes()
    block_chars = len(before) * datasets._SAVE_BLOCK // n
    monkeypatch.setattr(_DiskFillsUp, "BUDGET", 100 + int(budget_blocks * block_chars))
    monkeypatch.setattr(
        datasets, "open", lambda *a, **k: _DiskFillsUp(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(OSError) as err:
        save_csv(gaussian_mixture(n, 0.5, rng=Rng(12)), path)
    # the workers are gone while the error, which holds the frames, is alive
    assert _no_child_process()
    assert err.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["d.csv"]


def test_save_trace_failing_midway_leaves_the_old_file(tmp_path, monkeypatch):
    # trace files go through the same atomic writer as save_csv
    traces = [EpochTrace(e, 0.1, 0.2, 0.3, 0.05, 0.25, 0.5) for e in range(20)]
    path = tmp_path / "trace.csv"
    save_trace(traces, path)
    before = path.read_bytes()
    monkeypatch.setattr(
        datasets, "open", lambda *a, **k: _DiskFillsUp(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(OSError):
        save_trace(traces[:10], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_save_model_failing_midway_leaves_the_old_file(tmp_path, monkeypatch):
    # checkpoints go through the same atomic writer as save_csv
    path = tmp_path / "model.json"
    save_model(init([1, 4, 1], "tanh", Rng(15)), path)
    before = path.read_bytes()
    monkeypatch.setattr(
        datasets, "open", lambda *a, **k: _DiskFillsUp(builtins.open(*a, **k)), raising=False
    )
    with pytest.raises(OSError):
        save_model(init([1, 4, 1], "tanh", Rng(16)), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def test_save_csv_into_a_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "missing" / "d.csv"
    with pytest.raises(FileNotFoundError) as err:
        save_csv(gaussian_mixture(4, 0.5, rng=Rng(14)), path)
    assert err.value.filename == str(path)


def test_save_csv_over_a_directory_names_only_the_target(tmp_path):
    # a random temporary name in the message would make a grid's error row
    # differ from run to run
    path = tmp_path / "d.csv"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        save_csv(gaussian_mixture(4, 0.5, rng=Rng(14)), path)
    assert str(err.value) == f"[Errno {errno.EISDIR}] Is a directory: {str(path)!r}"
    assert os.listdir(tmp_path) == ["d.csv"]
