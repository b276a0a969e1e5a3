"""Tests for the single-sample and case-control corruption samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ss_unlabeled_mixture_weights
from puerm.datasets import SCENARIO_CC, SCENARIO_SS, LabeledDataset, gaussian_mixture
from puerm.errors import DataError, ParameterError
from puerm.numerics import Rng
from puerm.sampling import (
    CaseControlConfig,
    ScarConfig,
    case_control_sample,
    case_control_sizes,
    corrupt,
    scar_label,
    unlabeled_positive_fraction_ss,
)


@pytest.fixture(scope="module")
def source():
    return gaussian_mixture(60_000, 0.5, rng=Rng(100))


# ---------------------------------------------------------------------------
# scar_label


def test_scar_all_or_nothing(source):
    full = scar_label(source, ScarConfig(c=1.0, n=5000), Rng(0))
    assert np.array_equal(full.s == 1, full.y_true == 1)
    none = scar_label(source, ScarConfig(c=0.0, n=5000), Rng(0))
    assert not (none.s == 1).any()


def test_scar_labels_only_positives(source):
    pu = scar_label(source, ScarConfig(c=0.5, n=5000), Rng(1))
    assert pu.scenario == SCENARIO_SS
    assert pu.n == 5000
    assert not np.any((pu.s == 1) & (pu.y_true == -1))


def test_scar_label_count_binomial(source):
    pu = scar_label(source, ScarConfig(c=0.5, n=20_000), Rng(2))
    n_pos = int(np.sum(pu.y_true == 1))
    se = math.sqrt(n_pos * 0.5 * 0.5)
    assert abs(pu.n_labeled - 0.5 * n_pos) < 4 * se


def test_scar_unlabeled_positive_fraction(source):
    c = 0.9
    pu = scar_label(source, ScarConfig(c=c, n=50_000), Rng(3))
    unl = pu.y_true[pu.s == -1]
    expected = unlabeled_positive_fraction_ss(0.5, c)
    se = math.sqrt(expected * (1 - expected) / unl.size)
    assert abs(np.mean(unl == 1) - expected) < 4 * se


def test_scar_labeled_rows_match_positive_distribution(source):
    # selection is independent of features, so the labeled sample mean
    # must match the positive-class mean up to two-sample noise
    pu = scar_label(source, ScarConfig(c=0.3, n=50_000), Rng(4))
    lab = pu.x[pu.s == 1, 0]
    pos = source.x[source.y == 1, 0]
    se = math.sqrt(1.0 / lab.size + 1.0 / pos.size)
    assert abs(lab.mean() - pos.mean()) < 4 * se


def test_scar_draws_distinct_rows_without_replacement(source):
    pu = scar_label(source, ScarConfig(c=0.5, n=2000), Rng(5))
    # with distinct draws from a continuous feature, values are unique
    assert np.unique(pu.x[:, 0]).size == 2000


def test_scar_budget_exceeding_source_needs_replace(source):
    with pytest.raises(ParameterError):
        scar_label(source, ScarConfig(c=0.5, n=source.n + 1), Rng(6))


def test_scar_deterministic(source):
    a = scar_label(source, ScarConfig(c=0.7, n=1000), Rng(7))
    b = scar_label(source, ScarConfig(c=0.7, n=1000), Rng(7))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.s, b.s)


def test_scar_config_validation():
    with pytest.raises(ParameterError):
        ScarConfig(c=1.5)
    with pytest.raises(ParameterError):
        ScarConfig(c=0.5, n=0)


# ---------------------------------------------------------------------------
# case_control_sizes


def test_sizes_worked_example():
    assert case_control_sizes(1000, 0.5, 0.5) == (333, 667)


def test_sizes_always_sum_to_budget():
    for c in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for pi in (0.2, 0.5, 0.8):
            nl, nu = case_control_sizes(1000, pi, c)
            assert nl + nu == 1000
            assert nu > 0


def test_sizes_match_compensated_formula():
    # labeled size should track A*c*pi*n with A = 1/(1 - c(1 - pi))
    for c in (0.1, 0.5, 0.9):
        a = 1.0 / (1.0 - c * 0.5)
        nl, _ = case_control_sizes(10_000, 0.5, c)
        assert abs(nl - a * c * 0.5 * 10_000) <= 0.5


def test_sizes_labeled_grows_with_c():
    counts = [case_control_sizes(1000, 0.5, c)[0] for c in (0.1, 0.5, 0.9)]
    assert counts == sorted(counts)
    assert case_control_sizes(1000, 0.5, 0.0)[0] == 0


def test_sizes_validation():
    with pytest.raises(ParameterError):
        case_control_sizes(1000, 0.5, 1.0)
    with pytest.raises(ParameterError):
        case_control_sizes(1000, 1.5, 0.5)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-3, 10**7),
    st.floats(-0.5, 1.5, allow_nan=False),
    st.floats(-0.5, 1.5, allow_nan=False),
)
def test_sizes_split_the_budget_or_refuse(n, pi, c):
    valid = n >= 1 and 0.0 < pi < 1.0 and 0.0 <= c < 1.0
    try:
        nl, nu = case_control_sizes(n, pi, c)
    except ParameterError as exc:
        # valid inputs are refused only when labeling takes every row
        assert not valid or "leaves no unlabeled rows" in str(exc)
        return
    assert valid
    assert type(nl) is int and type(nu) is int
    assert nl + nu == n
    assert 0 <= nl < n


# ---------------------------------------------------------------------------
# case_control_sample


def test_cc_sample_composition(source):
    pu = case_control_sample(
        source, CaseControlConfig(c=0.5, pi=0.5, n=1000), Rng(8)
    )
    assert pu.scenario == SCENARIO_CC
    assert pu.n == 1000
    assert pu.n_labeled == 333
    assert np.all(pu.y_true[pu.s == 1] == 1)


def test_cc_unlabeled_follows_marginal(source):
    # the unlabeled component is a draw from the full population: its
    # positive fraction stays near pi even at high label frequency
    pu = case_control_sample(
        source, CaseControlConfig(c=0.9, pi=0.5, n=50_000), Rng(9)
    )
    unl = pu.y_true[pu.s == -1]
    se = math.sqrt(0.25 / unl.size)
    assert abs(np.mean(unl == 1) - 0.5) < 4 * se


def test_cc_rejects_c_equal_one():
    with pytest.raises(ParameterError):
        CaseControlConfig(c=1.0, pi=0.5)


def test_cc_config_refuses_what_the_sizes_refuse():
    with pytest.raises(ParameterError, match="c=1 leaves no unlabeled rows"):
        CaseControlConfig(c=1.0, pi=0.5)
    # at n=50, pi=0.5, c=0.999 the labeled part rounds up to all 50 rows
    with pytest.raises(ParameterError, match="budget n=50 leaves no unlabeled rows"):
        CaseControlConfig(c=0.999, pi=0.5, n=50)


def test_cc_requires_positive_rows():
    neg_only = gaussian_mixture(100, 0.5, rng=Rng(10))
    neg_only.y[:] = -1
    with pytest.raises(DataError):
        case_control_sample(
            neg_only, CaseControlConfig(c=0.5, pi=0.5, n=50), Rng(11)
        )


def test_cc_small_pool_falls_back_to_replacement():
    tiny = gaussian_mixture(40, 0.5, rng=Rng(12))
    pu = case_control_sample(
        tiny, CaseControlConfig(c=0.9, pi=0.5, n=200), Rng(13)
    )
    assert pu.n == 200
    assert np.all(pu.y_true[pu.s == 1] == 1)


def test_cc_draws_from_the_cached_positive_rows(source):
    cfg = CaseControlConfig(c=0.3, pi=0.5, n=2000)
    pu = case_control_sample(source, cfg, Rng(17))
    # the same draws, recomputing the positive rows from y
    rng = Rng(17)
    pos = np.flatnonzero(source.y == 1)
    nl, nu = case_control_sizes(cfg.n, cfg.pi, cfg.c)
    lab = pos[rng.sample_without_replacement(pos.size, nl)]
    unl = rng.sample_without_replacement(source.n, nu)
    assert np.array_equal(pu.x, source.x[np.concatenate([lab, unl])])


def test_cc_deterministic(source):
    a = case_control_sample(source, CaseControlConfig(c=0.3, pi=0.5), Rng(14))
    b = case_control_sample(source, CaseControlConfig(c=0.3, pi=0.5), Rng(14))
    assert np.array_equal(a.x, b.x)


# ---------------------------------------------------------------------------
# corrupt


def test_corrupt_dispatches_on_the_scenario_name():
    source = gaussian_mixture(400, 0.4, rng=Rng(15))
    ss = corrupt(source, SCENARIO_SS, 0.5, 300, Rng(16))
    want = scar_label(source, ScarConfig(c=0.5, n=300), Rng(16))
    assert np.array_equal(ss.x, want.x) and np.array_equal(ss.s, want.s)
    # case-control uses the source's prior, or the empirical one without it
    no_prior = LabeledDataset(x=source.x, y=source.y)
    for src, prior in ((source, 0.4), (no_prior, source.empirical_prior())):
        cc = corrupt(src, SCENARIO_CC, 0.5, 300, Rng(17))
        want = case_control_sample(src, CaseControlConfig(c=0.5, pi=prior, n=300), Rng(17))
        assert cc.pi == prior
        assert np.array_equal(cc.x, want.x) and np.array_equal(cc.s, want.s)
    with pytest.raises(ParameterError):
        corrupt(source, "single_sample", 0.5, 300, Rng(18))


# ---------------------------------------------------------------------------
# closed-form mixture quantities


def test_mixture_weights_sum_to_one():
    for pi in (0.2, 0.5, 0.8):
        for c in (0.0, 0.3, 0.9, 1.0):
            w_pos, w_neg = ss_unlabeled_mixture_weights(pi, c)
            assert abs(w_pos + w_neg - 1.0) < 1e-15
            assert w_pos >= 0 and w_neg >= 0


def test_positive_fraction_equals_positive_weight():
    for pi in (0.3, 0.5, 0.7):
        for c in (0.1, 0.5, 0.9):
            assert (
                abs(
                    unlabeled_positive_fraction_ss(pi, c)
                    - ss_unlabeled_mixture_weights(pi, c)[0]
                )
                < 1e-15
            )


def test_mixture_weight_worked_values():
    # pi=0.5, c=0.9: w_pos = 0.05/0.55, w_neg = 0.5/0.55
    w_pos, w_neg = ss_unlabeled_mixture_weights(0.5, 0.9)
    assert abs(w_pos - 0.05 / 0.55) < 1e-15
    assert abs(w_neg - 0.5 / 0.55) < 1e-15
    # boundary cases: c=0 leaves the marginal, c=1 leaves only negatives
    assert ss_unlabeled_mixture_weights(0.5, 0.0) == (0.5, 0.5)
    assert ss_unlabeled_mixture_weights(0.5, 1.0)[0] == 0.0


def test_positive_fraction_decreases_in_c():
    vals = [unlabeled_positive_fraction_ss(0.5, c) for c in (0.0, 0.5, 0.9)]
    assert vals[0] == 0.5
    assert vals == sorted(vals, reverse=True)
