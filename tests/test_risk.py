"""Tests for loss functions, risk components, and the estimator identities."""

import math

import numpy as np
import pytest

from oracles import mismatch_kappa, risk_decomposition_cc, risk_decomposition_ss, true_risk
from puerm.datasets import SCENARIO_CC, SCENARIO_SS, LabeledDataset
from puerm.errors import DataError, ParameterError, ShapeError
from puerm.numerics import Rng
from puerm.risk import (
    LOGISTIC,
    SIGMOID,
    empirical_risk_ss_regrouped,
    get_loss,
    loss_logistic,
    loss_logistic_derivative,
    loss_sigmoid,
    loss_sigmoid_derivative,
    nnpu_risk,
    risk_components,
)
from puerm.sampling import corrupt


# ---------------------------------------------------------------------------
# losses


def test_logistic_values():
    assert abs(loss_logistic(0.0) - math.log(2.0)) < 1e-15
    assert loss_logistic(100.0) < 1e-15
    assert abs(loss_logistic(-50.0) - 50.0) < 1e-12
    # no overflow at extreme margins
    assert np.isfinite(loss_logistic(np.array([-750.0, 750.0]))).all()


def test_logistic_shift_identity():
    # l(s) - l(-s) = -s, the linearity that lets the correction term
    # telescope against the labeled term
    m = Rng(1).uniform(1000) * 100.0 - 50.0
    gap = loss_logistic(m) - loss_logistic(-m)
    assert np.max(np.abs(gap + m)) < 1e-10


def test_logistic_derivative_matches_finite_differences():
    m = np.linspace(-8.0, 8.0, 41)
    h = 1e-6
    fd = (loss_logistic(m + h) - loss_logistic(m - h)) / (2 * h)
    assert np.max(np.abs(fd - loss_logistic_derivative(m))) < 1e-8


def test_sigmoid_loss_values_and_complement():
    assert abs(loss_sigmoid(0.0) - 0.5) < 1e-15
    m = Rng(2).normal(500) * 5.0
    # l(s) + l(-s) = 1 for the sigmoid loss
    assert np.max(np.abs(loss_sigmoid(m) + loss_sigmoid(-m) - 1.0)) < 1e-12


def test_sigmoid_derivative_matches_finite_differences():
    m = np.linspace(-8.0, 8.0, 41)
    h = 1e-6
    fd = (loss_sigmoid(m + h) - loss_sigmoid(m - h)) / (2 * h)
    assert np.max(np.abs(fd - loss_sigmoid_derivative(m))) < 1e-8


def test_get_loss():
    assert get_loss("logistic") is LOGISTIC
    assert get_loss("sigmoid") is SIGMOID
    with pytest.raises(ParameterError):
        get_loss("hinge")


# ---------------------------------------------------------------------------
# risk_components


def _batch(gl, gu):
    """Scores and labeled mask of a batch whose labeled rows come first."""
    gl, gu = np.asarray(gl, dtype=float), np.asarray(gu, dtype=float)
    return np.concatenate([gl, gu]), np.arange(gl.size + gu.size) < gl.size


def test_components_match_direct_formulas_cc():
    rng = Rng(3)
    gl = rng.normal(40)
    gu = rng.normal(60)
    comp = risk_components(*_batch(gl, gu), pi=0.3, mode=SCENARIO_CC)
    assert abs(comp.r_label - 0.3 * np.mean(np.logaddexp(0.0, -gl))) < 1e-14
    assert abs(comp.r_corr - 0.3 * np.mean(np.logaddexp(0.0, gl))) < 1e-14
    assert abs(comp.r_dist - np.mean(np.logaddexp(0.0, gu))) < 1e-14
    assert comp.d_label.shape == comp.d_dist.shape == comp.d_corr.shape == (100,)


def test_components_ss_pools_all_rows():
    rng = Rng(4)
    gl = rng.normal(25)
    gu = rng.normal(75)
    comp = risk_components(*_batch(gl, gu), pi=0.5, mode=SCENARIO_SS)
    pooled = (
        np.sum(np.logaddexp(0.0, gl)) + np.sum(np.logaddexp(0.0, gu))
    ) / 100.0
    assert abs(comp.r_dist - pooled) < 1e-14


def test_components_empty_labeled_part():
    comp = risk_components(*_batch([], [0.0, 1.0]), 0.5, SCENARIO_SS)
    assert comp.r_label == 0.0
    assert comp.r_corr == 0.0
    assert comp.r_dist > 0.0


def test_components_validation():
    with pytest.raises(ParameterError):
        risk_components(*_batch([0.0], [0.0]), 0.5, "both")
    with pytest.raises(ParameterError):
        risk_components(*_batch([0.0], [0.0]), 1.5, SCENARIO_SS)
    with pytest.raises(ShapeError):
        risk_components([0.0, 1.0], [True], 0.5, SCENARIO_SS)


@pytest.mark.parametrize("shape", [(2, 1), (1, 2), ()])
def test_components_refuse_scores_that_are_not_one_dimensional(shape):
    g = np.zeros(shape)
    with pytest.raises(ShapeError) as err:
        risk_components(g, np.ones(shape, dtype=bool), 0.5, SCENARIO_SS)
    assert str(err.value) == f"g must be a 1-D sequence of scores, got ndim={g.ndim}"


@pytest.mark.parametrize("mode", [SCENARIO_CC, SCENARIO_SS])
def test_components_refuse_a_mask_that_is_not_boolean(mode):
    # cast to bool, the +-1 labels s would mark every row labeled
    g, s = np.array([0.5, -0.2, 1.0, -1.0]), np.array([1, -1, -1, -1])
    for labeled in (s, s.astype(float), list(s), (s == 1).astype(np.int8)):
        with pytest.raises(ParameterError, match="boolean mask"):
            risk_components(g, labeled, 0.5, mode)
    mask = risk_components(g, s == 1, 0.5, mode)
    listed = risk_components(g, [True, False, False, False], 0.5, mode)
    assert (listed.r_label, listed.r_dist) == (mask.r_label, mask.r_dist)
    assert mask.r_dist > 0.7  # 0.742 in cc mode, where the cast gave 0.0


# ---------------------------------------------------------------------------
# uPU / nnPU values


def test_upu_and_nnpu_hand_cases():
    comp = risk_components(*_batch([10.0], [10.0]), 0.5, SCENARIO_CC)
    # labeled losses ~0, unlabeled l(-10) ~10: negative part is large
    # and positive, so the two estimates agree
    assert abs(comp.unbiased()[0] - nnpu_risk(comp)[0]) < 1e-12

    # constructed components: r_label=0.3, r_dist=0.2, r_corr=0.4
    from puerm.risk import RiskComponents

    comp = RiskComponents(0.3, 0.2, 0.4, *np.zeros((3, 2)))
    assert abs(comp.unbiased()[0] - 0.1) < 1e-15
    value, truncated = nnpu_risk(comp)
    assert value == 0.3
    assert truncated
    # beta only moves the trigger, never the value
    value, truncated = nnpu_risk(comp, beta=0.3)
    assert value == 0.3
    assert not truncated
    value, truncated = nnpu_risk(comp, beta=0.2)
    assert truncated
    with pytest.raises(ParameterError):
        nnpu_risk(comp, beta=-0.1)


def test_nnpu_risk_refuses_a_nan_beta():
    # every comparison with NaN is false, so the trigger would never fire
    comp = risk_components(*_batch([10.0], [10.0]), 0.5, SCENARIO_CC)
    with pytest.raises(ParameterError, match="beta must be >= 0, got nan"):
        nnpu_risk(comp, beta=float("nan"))


def test_nnpu_never_below_r_label():
    rng = Rng(5)
    for _ in range(20):
        comp = risk_components(*_batch(rng.normal(30), rng.normal(50)), 0.4, SCENARIO_CC)
        assert nnpu_risk(comp)[0] >= comp.r_label - 1e-15
        assert nnpu_risk(comp)[0] >= comp.unbiased()[0] - 1e-15


# ---------------------------------------------------------------------------
# decompositions


def test_true_risk_hand_computation():
    g = np.array([1.0, -2.0, 0.5])
    y = np.array([1, -1, -1])
    expected = np.mean(np.logaddexp(0.0, -np.array([1.0, 2.0, -0.5])))
    assert abs(true_risk(g, y) - expected) < 1e-15


def test_cc_decomposition_equals_true_risk_at_empirical_prior():
    rng = Rng(6)
    g = rng.normal(400)
    y = np.where(rng.bernoulli(0.35, 400), 1, -1)
    pi_emp = float(np.mean(y == 1))
    assert abs(risk_decomposition_cc(g, y, pi_emp) - true_risk(g, y)) < 1e-12


def test_cc_decomposition_telescopes_at_zero_scores():
    # at g=0 every loss term is log 2, so the prior-weighted form
    # collapses to log 2 for any pi
    g = np.zeros(50)
    y = np.where(Rng(7).bernoulli(0.5, 50), 1, -1)
    for pi in (0.2, 0.5, 0.8):
        assert abs(risk_decomposition_cc(g, y, pi) - math.log(2.0)) < 1e-14


def test_ss_decomposition_matches_component_route():
    rng = Rng(8)
    n = 300
    g = rng.normal(n)
    y = np.where(rng.bernoulli(0.5, n), 1, -1)
    s = np.where((y == 1) & rng.bernoulli(0.6, n), 1, -1)
    direct = risk_decomposition_ss(g, s, y, pi=0.5)
    lab = s == 1
    comp = risk_components(g, lab, 0.5, SCENARIO_SS)
    assert abs(direct - comp.unbiased()[0]) < 1e-12


def test_ss_decomposition_validation():
    with pytest.raises(DataError):
        risk_decomposition_ss([0.0, 1.0], [-1, -1], None, 0.5)
    with pytest.raises(DataError):
        risk_decomposition_ss([0.0, 1.0], [1, -1], [-1, 1], 0.5)


def test_regrouped_form_equals_pooled_form():
    # same estimator written with two different term groupings
    rng = Rng(9)
    for trial in range(100):
        r = rng.child(trial)
        n = 2 + int(r.uniform(1)[0] * 510)
        n_l = 1 + int(r.uniform(1)[0] * (n - 1))
        gl = r.normal(n_l) * 5.0
        gu = r.normal(n - n_l) * 5.0
        pooled = risk_components(*_batch(gl, gu), 0.4, SCENARIO_SS).unbiased()[0]
        regrouped = empirical_risk_ss_regrouped(gl, gu, 0.4)
        assert abs(pooled - regrouped) <= 1e-12 * max(1.0, abs(pooled))


def test_regrouped_form_needs_labeled_rows():
    with pytest.raises(DataError):
        empirical_risk_ss_regrouped([], [0.0], 0.5)


def test_downward_bias_direction_at_high_c():
    # treating s-s data as if it were c-c underestimates the negative
    # part: the signed part r_dist - r_corr computed in c-c mode is
    # smaller on s-s samples than on matched c-c samples
    from puerm.datasets import gaussian_mixture
    from puerm.sampling import (
        CaseControlConfig,
        ScarConfig,
        case_control_sample,
        scar_label,
    )

    pool = gaussian_mixture(50_000, 0.5, rng=Rng(13))

    def signed_part(pu):
        lab = pu.s == 1
        g = 2.0 * pu.x[:, 0]
        comp = risk_components(g, lab, 0.5, SCENARIO_CC)
        return comp.r_dist - comp.r_corr

    ss_vals = []
    cc_vals = []
    for rep in range(30):
        ss_vals.append(
            signed_part(
                scar_label(pool, ScarConfig(c=0.9, n=1000), Rng(14).child(rep))
            )
        )
        cc_vals.append(
            signed_part(
                case_control_sample(
                    pool,
                    CaseControlConfig(c=0.9, pi=0.5, n=1000),
                    Rng(15).child(rep),
                )
            )
        )
    assert np.mean(ss_vals) < np.mean(cc_vals)


# ---------------------------------------------------------------------------
# the mismatch bias


def _exact_prior_source(n, pi, rng):
    """Unit Gaussians at +-2 with exactly round(pi * n) positive rows, so the
    draw's own prior is ``pi``."""
    y = np.where(np.arange(n) < round(pi * n), 1, -1)
    return LabeledDataset(x=(rng.normal(n) + 2.0 * y)[:, None], y=y, pi=pi)


@pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID], ids=lambda spec: spec.kind)
@pytest.mark.parametrize("pi", [0.3, 0.7])
@pytest.mark.parametrize("c", [0.5, 0.9])
@pytest.mark.parametrize("scenario", [SCENARIO_SS, SCENARIO_CC])
def test_mismatched_estimator_is_off_by_kappa_delta(scenario, c, pi, loss):
    # the estimator built for the other scenario, on data drawn under this
    # one, against R + kappa * D with R and D taken over the source draw
    other = SCENARIO_CC if scenario == SCENARIO_SS else SCENARIO_SS
    n, draws, t = 12_500, 32, 0.5
    kappa = mismatch_kappa(scenario, pi, c, n)
    gaps, biases = [], []
    for i in range(draws):
        rng = Rng(23).child(i)
        source = _exact_prior_source(n, pi, rng.child(0))
        g = source.x[:, 0] - t
        neg, pos = loss.value(-g), source.y == 1
        bias = kappa * float(np.mean(neg[pos]) - np.mean(neg[~pos]))
        pu = corrupt(source, scenario, c, n, rng.child(1))
        comp = risk_components(pu.x[:, 0] - t, pu.s == 1, pi, other, loss, grad=False)
        gaps.append(comp.unbiased()[0] - true_risk(g, source.y, loss) - bias)
        biases.append(bias)
    se = float(np.std(gaps, ddof=1)) / math.sqrt(draws)
    assert abs(float(np.mean(gaps))) <= 3.0 * se
    # the bias stands far out of the noise, so an unbiased estimate would fail
    assert abs(float(np.mean(biases))) >= 10.0 * se
