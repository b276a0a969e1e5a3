"""Acceptance suite: one check per criterion, one printed pass/fail line each.

The heavy cross-scenario protocol (criteria 6-8) runs once as a module
fixture: the two-Gaussian family with means +-2 and unit variance,
pi = 0.5, training budget 1000, ten seeds, and both truncation-based
methods trained on both corruption scenarios at high and low label
frequency. Criterion 10 trains the same network with the sigmoid loss on
the overlapping family (means +-1) at pi = 0.3 and, as its control, 0.5.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values.
"""

import math

import numpy as np
import pytest

from oracles import risk_decomposition_cc, risk_decomposition_ss
from puerm import risk
from puerm.datasets import SCENARIO_CC, SCENARIO_SS, gaussian_mixture
from puerm.harness import DatasetSource, GridSpec, run_grid
from puerm.model import forward, grad_check, init
from puerm.numerics import Rng
from puerm.sampling import (
    CaseControlConfig,
    ScarConfig,
    case_control_sample,
    scar_label,
    unlabeled_positive_fraction_ss,
)
from puerm.trainer import TrainerConfig, batch_objective, classify_scores, train


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {name}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: the pooled and regrouped single-sample estimators agree


def test_criterion_1_estimator_regrouping_identity():
    rng = Rng(101)
    worst = 0.0
    for i in range(100):
        r = rng.child(i)
        n = 2 + int(r.uniform(1)[0] * 510)
        n_l = 1 + int(r.uniform(1)[0] * (n - 1))
        gl = r.normal(n_l, sd=4.0)
        gu = r.normal(n - n_l, sd=4.0)
        pi = 0.05 + 0.9 * r.uniform(1)[0]
        labeled = np.arange(n) < n_l
        pooled = risk.risk_components(
            np.concatenate([gl, gu]), labeled, pi, SCENARIO_SS
        ).unbiased()[0]
        regrouped = risk.empirical_risk_ss_regrouped(gl, gu, pi)
        worst = max(worst, abs(pooled - regrouped) / max(abs(pooled), abs(regrouped), 1e-300))
    ok = worst < 1e-12
    _report(
        1,
        "estimator regrouping identity",
        ok,
        f"max relative difference {worst:.3e} over 100 batches (tol 1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: logistic margin identity


def test_criterion_2_logistic_margin_identity():
    margins = (Rng(102).uniform(1000) - 0.5) * 100.0
    worst = float(
        np.max(np.abs(risk.loss_logistic(margins) - risk.loss_logistic(-margins) + margins))
    )
    ok = worst < 1e-10
    _report(
        2,
        "logistic margin identity",
        ok,
        f"max absolute error {worst:.3e} over 1000 margins in [-50, 50] (tol 1e-10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: analytic gradients of both update branches vs central
# finite differences, with batches constructed to force each branch


def _relu_pre_activations(model, x):
    """Each hidden layer's pre-activation over the rows of ``x`` in a relu
    model, computed as ``forward_pass`` does (which keeps only the layer
    inputs)."""
    zs, a = [], x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = np.dot(a, w.T)
        z += b
        zs.append(z)
        a = np.maximum(z, 0.0)
    return zs


@pytest.mark.parametrize("activation,tol", [("tanh", 1e-6), ("relu", 1e-4)])
def test_criterion_3_gradients_both_branches(activation, tol):
    rng = Rng(103)
    model = init([2, 8, 8, 1], activation, rng.child(7))
    if activation == "relu":
        for b in model.biases[:-1]:
            b += 0.05  # keep pre-activations off the kink
    x = rng.child(107).normal(24, sd=1.5).reshape(12, 2)
    # rescale the output layer so scores span roughly [-5, 5]: large
    # enough to force the truncation branch, small enough that loss
    # derivatives stay well above the checker's denominator floor
    model.weights[-1] *= 5.0 / np.max(np.abs(forward(model, x)))
    g = forward(model, x)
    order = np.argsort(g)
    # batch A labels the lowest-scoring rows, so the correction term is
    # tiny and the signed part stays positive (unbiased branch)
    batch_a = (x[np.concatenate([order[:3], order[-3:]])], np.array([1, 1, 1, -1, -1, -1]))
    # batch B labels only the top-scoring row against five low rows, so
    # the correction term dominates (truncation branch)
    batch_b = (x[np.concatenate([order[-1:], order[:5]])], np.array([1, -1, -1, -1, -1, -1]))

    if activation == "relu":
        zs = _relu_pre_activations(model, np.vstack([batch_a[0], batch_b[0]]))
        assert min(np.min(np.abs(z)) for z in zs) > 1e-3
        for z in zs:
            assert (z > 0).any(axis=0).all()  # no unit dead across the batches

    worst = 0.0
    for (bx, bs), surrogate in ((batch_a, False), (batch_b, True)):
        bg = forward(model, bx)
        branches = [(SCENARIO_SS, surrogate), (SCENARIO_CC, surrogate)]
        for mode, _ in branches:
            comp = risk.risk_components(bg, bs == 1, 0.5, mode)
            assert risk.nnpu_risk(comp)[1] is surrogate  # the batch forces its branch
        # one sweep checks both modes of the batch's branch ...
        err = grad_check(model, batch_objective(bx, bs, 0.5, risk.LOGISTIC, branches))
        # ... with the bits of a sweep per mode
        assert err == max(
            grad_check(model, batch_objective(bx, bs, 0.5, risk.LOGISTIC, [branch]))
            for branch in branches
        )
        worst = max(worst, err)
    ok = worst < tol
    _report(
        3,
        f"gradient check ({activation})",
        ok,
        f"max relative error {worst:.3e} over both branches and both modes (tol {tol:g})",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: sampler proportions against the closed forms


def test_criterion_4_sampler_proportions():
    rng = Rng(104)
    n = 200_000
    pool = gaussian_mixture(2 * n, 0.5, rng=rng.child(0))
    worst_z = 0.0
    for j, c in enumerate((0.1, 0.5, 0.9)):
        pu = scar_label(pool, ScarConfig(c=c, n=n), rng.child(10 + j))
        unl = pu.s == -1
        frac = float(np.mean(pu.y_true[unl] == 1))
        target = unlabeled_positive_fraction_ss(0.5, c)
        sigma = float(np.sqrt(target * (1.0 - target) / int(unl.sum())))
        worst_z = max(worst_z, abs(frac - target) / sigma)

        cc = case_control_sample(
            pool, CaseControlConfig(c=c, pi=0.5, n=n), rng.child(20 + j)
        )
        unl = cc.s == -1
        frac = float(np.mean(cc.y_true[unl] == 1))
        sigma = float(np.sqrt(0.25 / int(unl.sum())))
        worst_z = max(worst_z, abs(frac - 0.5) / sigma)
    ok = worst_z <= 3.0
    _report(
        4,
        "sampler proportions",
        ok,
        f"worst |z| {worst_z:.2f} over both scenarios, c in (0.1, 0.5, 0.9) (tol 3 sigma)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: resampling means of the unbiased estimators match the
# decompositions evaluated on a million-point reference sample


def test_criterion_5_estimator_unbiasedness():
    root = Rng(105)
    pool = gaussian_mixture(1_000_000, 0.5, rng=root.child(0))

    # a fixed classifier, trained once and frozen
    train_pool = gaussian_mixture(2000, 0.5, rng=root.child(1))
    pu_train = scar_label(train_pool, ScarConfig(c=0.5, n=1000), root.child(2))
    model = init([1, 8, 1], "tanh", root.child(3))
    cfg = TrainerConfig(method="nnpu_ss", eta=0.05, epochs=50, batch_size=100, seed=1105)
    model, _ = train(pu_train, cfg, model)
    g_pool = forward(model, pool.x)

    # case-control resamplings vs the prior-weighted decomposition
    ref_cc = risk_decomposition_cc(g_pool, pool.y, 0.5)
    vals = []
    for i in range(1000):
        pu = case_control_sample(
            pool, CaseControlConfig(c=0.5, pi=0.5, n=1000), root.child(1000 + i)
        )
        g = forward(model, pu.x)
        lab = pu.s == 1
        vals.append(risk.risk_components(g, lab, 0.5, SCENARIO_CC).unbiased()[0])
    vals = np.asarray(vals)
    se_cc = float(vals.std(ddof=1) / np.sqrt(vals.size))
    z_cc = abs(float(vals.mean()) - ref_cc) / se_cc

    # single-sample resamplings vs the depleted-mixture decomposition on
    # a corrupted copy of the same reference sample
    pu_ref = scar_label(pool, ScarConfig(c=0.5, n=pool.n), root.child(4))
    ref_ss = risk_decomposition_ss(g_pool, pu_ref.s, pu_ref.y_true, 0.5)
    vals = []
    for i in range(1000):
        idx = root.child(5000 + i).sample_without_replacement(pool.n, 1000)
        s = pu_ref.s[idx]
        g = g_pool[idx]
        lab = s == 1
        vals.append(risk.risk_components(g, lab, 0.5, SCENARIO_SS).unbiased()[0])
    vals = np.asarray(vals)
    se_ss = float(vals.std(ddof=1) / np.sqrt(vals.size))
    z_ss = abs(float(vals.mean()) - ref_ss) / se_ss

    ok = z_cc <= 3.0 and z_ss <= 3.0
    _report(
        5,
        "estimator unbiasedness",
        ok,
        f"|z| case-control {z_cc:.2f}, single-sample {z_ss:.2f} "
        f"over 1000 resamplings each (tol 3 standard errors)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criteria 6-8 share one protocol: both methods on both scenarios at high
# and low label frequency, ten seeds each


PROTOCOL_BASE = 1_000_000
PROTOCOL_N = 1000
PROTOCOL_SEEDS = range(10)


@pytest.fixture(scope="module")
def protocol_runs():
    results = {}  # (c, scenario, method) -> list of (accuracy, traces)
    for c in (0.9, 0.1):
        for seed in PROTOCOL_SEEDS:
            root = Rng(PROTOCOL_BASE + seed)
            pool = gaussian_mixture(2 * PROTOCOL_N, 0.5, rng=root.child(0))
            test = gaussian_mixture(250, 0.5, rng=root.child(1))
            data = {
                "ss": scar_label(pool, ScarConfig(c=c, n=PROTOCOL_N), root.child(2)),
                "cc": case_control_sample(
                    pool, CaseControlConfig(c=c, pi=0.5, n=PROTOCOL_N), root.child(3)
                ),
            }
            for scenario in ("ss", "cc"):
                for method in ("nnpu_ss", "nnpu_cc"):
                    model = init([1, 8, 1], "tanh", root.child(4))
                    cfg = TrainerConfig(
                        method=method,
                        eta=0.05,
                        epochs=50,
                        batch_size=100,
                        optimizer="sgd",
                        seed=2 * PROTOCOL_BASE + seed,
                    )
                    model, traces = train(data[scenario], cfg, model, test)
                    preds = classify_scores(forward(model, test.x))
                    acc = float(np.mean(preds == test.y))
                    results.setdefault((c, scenario, method), []).append((acc, traces))
    return results


def _mean_accuracy(results, c, scenario, method) -> float:
    return 100.0 * float(np.mean([acc for acc, _ in results[(c, scenario, method)]]))


def test_criterion_6_cross_scenario_degradation(protocol_runs):
    gap_ss_hi = _mean_accuracy(protocol_runs, 0.9, "ss", "nnpu_ss") - _mean_accuracy(
        protocol_runs, 0.9, "ss", "nnpu_cc"
    )
    gap_cc_hi = _mean_accuracy(protocol_runs, 0.9, "cc", "nnpu_cc") - _mean_accuracy(
        protocol_runs, 0.9, "cc", "nnpu_ss"
    )
    gap_ss_lo = _mean_accuracy(protocol_runs, 0.1, "ss", "nnpu_ss") - _mean_accuracy(
        protocol_runs, 0.1, "ss", "nnpu_cc"
    )
    gap_cc_lo = _mean_accuracy(protocol_runs, 0.1, "cc", "nnpu_cc") - _mean_accuracy(
        protocol_runs, 0.1, "cc", "nnpu_ss"
    )
    ok = (
        gap_ss_hi >= 2.0
        and gap_cc_hi >= 2.0
        and abs(gap_ss_lo) <= 2.0
        and abs(gap_cc_lo) <= 2.0
    )
    _report(
        6,
        "cross-scenario degradation",
        ok,
        f"c=0.9 gaps: single-sample {gap_ss_hi:+.2f}, case-control {gap_cc_hi:+.2f} "
        f"(need >= +2 each); c=0.1 gaps: {gap_ss_lo:+.2f}, {gap_cc_lo:+.2f} "
        f"(need |gap| <= 2 each)",
    )
    assert ok


def test_criterion_7_correct_method_quality_floor(protocol_runs):
    floors = {
        (c, scenario, method): _mean_accuracy(protocol_runs, c, scenario, method)
        for c in (0.9, 0.1)
        for scenario, method in (("ss", "nnpu_ss"), ("cc", "nnpu_cc"))
    }
    worst = min(floors.values())
    ok = worst >= 90.0
    _report(
        7,
        "scenario-matched quality floor",
        ok,
        f"lowest mean accuracy {worst:.2f} over matched pairs at both c levels "
        f"(need >= 90.00; optimal rule gives ~97.7 on this family)",
    )
    assert ok


def test_criterion_8_trace_diagnostics(protocol_runs):
    for (c, scenario, method), runs in protocol_runs.items():
        for _, traces in runs:
            assert len(traces) == 50
            for t in traces:
                assert 0.0 <= t.truncation_fraction <= 1.0
                assert np.isfinite(t.objective)
                assert np.isfinite(t.r_label)
                assert np.isfinite(t.r_dist)
                assert np.isfinite(t.r_corr)
                assert t.test_accuracy is not None and 0.0 <= t.test_accuracy <= 1.0
            assert [t.epoch for t in traces] == list(range(50))

    def mean_truncation(method):
        runs = protocol_runs[(0.9, "ss", method)]
        return float(
            np.mean([np.mean([t.truncation_fraction for t in traces]) for _, traces in runs])
        )

    t_cc = mean_truncation("nnpu_cc")
    t_ss = mean_truncation("nnpu_ss")
    ok = t_cc > t_ss
    _report(
        8,
        "trace diagnostics",
        ok,
        f"all traces well-formed; mean truncation fraction on single-sample data "
        f"at c=0.9: cross-applied {t_cc:.3f} > matched {t_ss:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: grid determinism


def test_criterion_9_grid_rerun_byte_identical(tmp_path):
    def make_spec(out):
        return GridSpec(
            datasets=[DatasetSource(name="gauss1d", kind="synthetic")],
            scenarios=["ss", "cc"],
            methods=["nnpu_ss", "nnpu_cc"],
            c_values=[0.1, 0.9],
            seeds=[0, 1],
            trainer=TrainerConfig(epochs=3, batch_size=50, optimizer="sgd"),
            n=200,
            hidden_dims=[8],
            activation="tanh",
            out=str(out),
        )

    run_grid(make_spec(tmp_path / "first.csv"))
    run_grid(make_spec(tmp_path / "second.csv"))
    first = (tmp_path / "first.csv").read_bytes()
    second = (tmp_path / "second.csv").read_bytes()
    ok = first == second and len(first.splitlines()) == 2 + 16
    _report(
        9,
        "grid determinism",
        ok,
        f"independent rerun of a 16-cell grid produced byte-identical results "
        f"({len(first)} bytes)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: where the class reweighting predicts a large case-control
# gap, the mismatched estimator loses it; at pi = 0.5, where it predicts
# none, the same training budget shows none


CRITERION_10_BASE = 10_000_000
CRITERION_10_SEEDS = range(10)


def _overlapping_bayes_accuracy(pi: float) -> float:
    """Bayes accuracy in percent for N(+1, 1) vs N(-1, 1) at prior ``pi``."""
    t = math.log((1.0 - pi) / pi) / 2.0  # the posterior is 1/2 at x = t

    def phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    return 100.0 * (pi * phi(1.0 - t) + (1.0 - pi) * phi(1.0 + t))


def _paired_cc_gaps(pi: float) -> np.ndarray:
    """nnpu_cc minus nnpu_ss accuracy (points) per seed on case-control
    data at c = 0.9, both methods trained from the same sample, weights and
    shuffles and scored on the same 20,000 rows."""
    gaps = []
    for seed in CRITERION_10_SEEDS:
        root = Rng(CRITERION_10_BASE + seed)
        pool = gaussian_mixture(2 * PROTOCOL_N, pi, 1.0, -1.0, rng=root.child(0))
        test = gaussian_mixture(20_000, pi, 1.0, -1.0, rng=root.child(1))
        pu = case_control_sample(
            pool, CaseControlConfig(c=0.9, pi=pi, n=PROTOCOL_N), root.child(3)
        )
        acc = {}
        for method in ("nnpu_cc", "nnpu_ss"):
            cfg = TrainerConfig(
                method=method, eta=0.05, epochs=50, batch_size=100, loss="sigmoid",
                seed=CRITERION_10_BASE + seed,
            )
            model, _ = train(pu, cfg, init([1, 8, 1], "tanh", root.child(4)))
            preds = classify_scores(forward(model, test.x))
            acc[method] = 100.0 * float(np.mean(preds == test.y))
        gaps.append(acc["nnpu_cc"] - acc["nnpu_ss"])
    return np.asarray(gaps)


def test_criterion_10_case_control_gap_where_the_reweighting_predicts_it():
    # the ss estimator on cc data weighs E+ l(g) by pi - kappa, kappa = a(1 - pi)
    # with a = c pi / (1 - c(1 - pi)); at pi = 0.3 and c = 0.9 that weight is
    # below 0, so its minimiser calls every row negative: accuracy 1 - pi
    a = 0.9 * 0.3 / (1.0 - 0.9 * 0.7)
    assert 0.3 - a * 0.7 < 0.0
    predicted = _overlapping_bayes_accuracy(0.3) - 70.0
    gaps, control = _paired_cc_gaps(0.3), _paired_cc_gaps(0.5)
    gap, se = float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(gaps.size))
    c_gap = float(control.mean())
    c_se = float(control.std(ddof=1) / math.sqrt(control.size))
    ok = abs(gap - predicted) <= 1.0 and gap > 3.0 * se and abs(c_gap) <= 3.0 * c_se
    _report(
        10,
        "case-control gap where the reweighting predicts it",
        ok,
        f"pi=0.3, c=0.9 gap {gap:+.2f} +- {se:.2f} vs predicted {predicted:+.2f} "
        f"(need within 1 point); pi=0.5 control {c_gap:+.2f} +- {c_se:.2f} "
        f"(need within 3 se of 0)",
    )
    assert ok
