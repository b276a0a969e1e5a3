"""Tests for dataset containers, the synthetic generator, and CSV I/O."""

import math

import numpy as np
import pytest

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
from puerm.errors import DataError, FormatError, ParameterError
from puerm.numerics import Rng


# ---------------------------------------------------------------------------
# containers


def test_labeled_dataset_basics():
    ds = LabeledDataset(x=[[0.0], [1.0], [2.0], [3.0]], y=[1, -1, 1, 1])
    assert ds.n == 4
    assert ds.dim == 1
    assert ds.empirical_prior() == 0.75


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


def test_split_spec_validation():
    ds = gaussian_mixture(10, 0.5, rng=Rng(0))
    with pytest.raises(ParameterError):
        train_test_split(ds, 0.0, Rng(0))
    with pytest.raises(ParameterError):
        train_test_split(ds, 1.0, Rng(0))


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
    assert abs(ds.empirical_prior() - 0.3) < 4 * se


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


def test_mixture_deterministic_given_rng():
    a = gaussian_mixture(100, 0.5, rng=Rng(6))
    b = gaussian_mixture(100, 0.5, rng=Rng(6))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


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
