"""Tests for the minibatch training loop, branch logic, and trace IO."""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from oracles import copy_model
from puerm.datasets import (
    SCENARIO_CC,
    SCENARIO_SS,
    LabeledDataset,
    PUDataset,
    gaussian_mixture,
)
from puerm.errors import DataError, FormatError, ParameterError, ShapeError, TrainingError
from puerm.model import MLPModel, backward, forward, forward_pass, grad_check, init
from puerm.numerics import Rng
from puerm.risk import LOGISTIC, LossSpec, get_loss, nnpu_risk, risk_components
from puerm.sampling import CaseControlConfig, ScarConfig, case_control_sample, scar_label
from puerm.trainer import (
    METHODS,
    OPTIMIZERS,
    TRACE_COLUMNS,
    EpochTrace,
    TrainerConfig,
    batch_objective,
    classify_scores,
    evaluate,
    load_trace,
    save_trace,
    train,
)


def _small_ss_dataset(n=200, c=0.5, seed=1):
    pool = gaussian_mixture(4 * n, 0.5, rng=Rng(seed))
    return scar_label(pool, ScarConfig(c=c, n=n), Rng(seed + 1))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainerConfig(method="pn")
    with pytest.raises(ParameterError):
        TrainerConfig(beta=-0.1)
    with pytest.raises(ParameterError):
        TrainerConfig(gamma=0.0)
    with pytest.raises(ParameterError):
        TrainerConfig(gamma=1.5)
    with pytest.raises(ParameterError):
        TrainerConfig(eta=0.0)
    with pytest.raises(ParameterError):
        TrainerConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainerConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainerConfig(optimizer="rmsprop")
    with pytest.raises(ParameterError):
        TrainerConfig(loss="hinge")


def test_config_mode_and_family_flags():
    assert TrainerConfig(method="nnpu_ss").mode == "ss"
    assert TrainerConfig(method="upu_cc").mode == "cc"
    assert TrainerConfig(method="nnpu_cc").is_nnpu
    assert not TrainerConfig(method="upu_ss").is_nnpu


# ---------------------------------------------------------------------------
# the update rule


def test_zero_epochs_leaves_model_untouched():
    data = _small_ss_dataset()
    model = init([1, 4, 1], "tanh", Rng(2))
    before = [w.copy() for w in model.weights]
    model, traces = train(data, TrainerConfig(epochs=0, batch_size=50), model)
    assert traces == []
    for w0, w1 in zip(before, model.weights):
        assert np.array_equal(w0, w1)


def test_model_of_another_width_rejected():
    data = _small_ss_dataset(n=40)
    with pytest.raises(ShapeError):
        train(data, TrainerConfig(batch_size=10), init([2, 4, 1], "tanh", Rng(3)))


def test_test_set_of_another_width_rejected():
    data = _small_ss_dataset(n=40)
    test = gaussian_mixture(20, 0.5, dim=2, rng=Rng(4))
    with pytest.raises(ShapeError, match="test set has 2 features"):
        train(data, TrainerConfig(batch_size=10), init([1, 4, 1], "tanh", Rng(3)), test)


def test_empty_test_set_rejected_before_any_epoch():
    data = _small_ss_dataset(n=40)
    model = init([1, 4, 1], "tanh", Rng(3))
    before = model.params.tobytes()
    empty = LabeledDataset(x=np.empty((0, 1)), y=np.empty(0, dtype=np.int64))
    with pytest.raises(DataError, match="test set has no rows"):
        train(data, TrainerConfig(batch_size=10), model, empty)
    assert model.params.tobytes() == before


def _count_as_matrix(monkeypatch):
    """Count the matrix validations the model module makes."""
    import puerm.model

    calls = []
    original = puerm.model.as_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(puerm.model, "as_matrix", counted)
    return calls


def test_train_scores_the_test_set_without_rescanning(monkeypatch):
    data = _small_ss_dataset(n=60)
    test = gaussian_mixture(30, 0.5, rng=Rng(5))
    calls = _count_as_matrix(monkeypatch)
    _, traces = train(
        data, TrainerConfig(epochs=3, batch_size=20), init([1, 4, 1], "tanh", Rng(3)), test
    )
    assert all(t.test_accuracy is not None for t in traces)
    assert calls == []


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_train_leaves_its_inputs_alone(optimizer):
    # the in-place step and the per-epoch gather must write only the model
    data = _small_ss_dataset(n=200)
    test = gaussian_mixture(100, 0.5, rng=Rng(7))
    arrays = (data.x, data.s, test.x)
    before = [a.tobytes() for a in arrays]
    cfg = TrainerConfig(epochs=3, batch_size=30, optimizer=optimizer, seed=9)
    train(data, cfg, init([1, 8, 8, 1], "relu", Rng(8)), test)
    assert [a.tobytes() for a in arrays] == before


def test_batch_size_larger_than_dataset_rejected():
    data = _small_ss_dataset(n=40)
    with pytest.raises(ParameterError):
        train(data, TrainerConfig(batch_size=41), init([1, 4, 1], "tanh", Rng(3)))


def test_single_full_batch_sgd_step_recomputed_by_hand():
    # one epoch, one batch: the update must equal
    # w - eta * d(upu objective)/dw with the per-row chain assembled
    # here from the raw loss derivatives
    data = _small_ss_dataset(n=60, c=0.6, seed=4)
    cfg = TrainerConfig(
        method="upu_cc", eta=0.07, epochs=1, batch_size=60, seed=11
    )
    model = init([1, 5, 1], "tanh", Rng(5))
    reference = copy_model(model)

    trained, traces = train(data, cfg, model)

    # manual route: same permutation, raw derivative assembly
    perm = Rng(cfg.seed).permutation(60)
    xb = data.x[perm]
    lab = data.s[perm] == 1
    g = forward(reference, xb)
    n_l = int(lab.sum())
    n_u = 60 - n_l
    pi = data.pi

    def lprime(m):
        return -1.0 / (1.0 + np.exp(m))

    u = np.zeros(60)
    u[lab] = (pi / n_l) * (lprime(g[lab]) + lprime(-g[lab]))
    u[~lab] = -(1.0 / n_u) * lprime(-g[~lab])
    grads = backward(reference, forward_pass(reference, xb), u)
    for w, gw in zip(reference.weights, grads.weights):
        w -= cfg.eta * gw
    for b, gb in zip(reference.biases, grads.biases):
        b -= cfg.eta * gb

    # tolerance only absorbs summation-order rounding; a wiring mistake
    # (wrong step, dropped term, bad permutation) shows up at ~1e-2
    for wa, wb in zip(trained.weights, reference.weights):
        assert np.allclose(wa, wb, rtol=1e-12, atol=1e-15)
    for ba, bb in zip(trained.biases, reference.biases):
        assert np.allclose(ba, bb, rtol=1e-12, atol=1e-15)
    assert len(traces) == 1
    assert traces[0].truncation_fraction == 0.0


def test_truncated_batch_takes_discounted_surrogate_step():
    # labeled rows score +10 (huge correction term), unlabeled score -10
    # (tiny distribution term): the signed part is deeply negative, so an
    # nnPU method must flip to the surrogate with step gamma * eta
    x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    s = np.array([1, 1, -1, -1])
    y = np.array([1, 1, -1, -1])
    data = PUDataset(x=x, s=s, y_true=y, pi=0.5, scenario=SCENARIO_CC, c=0.5)
    model = MLPModel(
        layer_dims=[1, 1],
        weights=[np.array([[10.0]])],
        biases=[np.array([0.0])],
        activation="tanh",
    )
    cfg = TrainerConfig(
        method="nnpu_cc", eta=0.1, gamma=0.5, epochs=1, batch_size=4, seed=0
    )

    g0 = forward(model, x)
    comp0 = risk_components(g0, s == 1, 0.5, SCENARIO_CC)
    neg0 = comp0.r_dist - comp0.r_corr
    assert neg0 < 0.0

    reference = copy_model(model)
    trained, traces = train(data, cfg, model)
    assert traces[0].truncation_fraction == 1.0
    # reported objective is the truncated value r_label + max(neg, 0)
    assert abs(traces[0].objective - comp0.r_label) < 1e-12

    # manual surrogate step at gamma * eta
    perm = Rng(0).permutation(4)
    xb = data.x[perm]
    lab = data.s[perm] == 1
    g = forward(reference, xb)

    def lprime(m):
        return -1.0 / (1.0 + np.exp(m))

    u = np.zeros(4)
    # surrogate r_corr - r_dist: labeled rows -pi/n_l * l'(-g), unlabeled
    # rows +1/n_u * l'(-g), no r_label term
    u[lab] = -(0.5 / 2) * lprime(-g[lab])
    u[~lab] = (1.0 / 2) * lprime(-g[~lab])
    grads = backward(reference, forward_pass(reference, xb), u)
    step = cfg.gamma * cfg.eta
    for w, gw in zip(reference.weights, grads.weights):
        w -= step * gw
    for b, gb in zip(reference.biases, grads.biases):
        b -= step * gb
    for wa, wb in zip(trained.weights, reference.weights):
        assert np.allclose(wa, wb, rtol=1e-12, atol=1e-15)
    for ba, bb in zip(trained.biases, reference.biases):
        assert np.allclose(ba, bb, rtol=1e-12, atol=1e-15)

    # the surrogate step pushes the signed part back up
    g1 = forward(trained, x)
    comp1 = risk_components(g1, s == 1, 0.5, SCENARIO_CC)
    assert comp1.r_dist - comp1.r_corr > neg0


def test_upu_and_nnpu_agree_while_no_batch_truncates():
    # early in training the signed part is positive, so the nnPU branch
    # never fires and both methods take identical steps
    data = _small_ss_dataset(n=200, c=0.5, seed=6)
    kwargs = dict(eta=0.05, epochs=3, batch_size=50, seed=7)
    m_upu = init([1, 6, 1], "tanh", Rng(8))
    m_nn = copy_model(m_upu)
    m_upu, tr_upu = train(data, TrainerConfig(method="upu_cc", **kwargs), m_upu)
    m_nn, tr_nn = train(data, TrainerConfig(method="nnpu_cc", **kwargs), m_nn)
    assert all(t.truncation_fraction == 0.0 for t in tr_nn)
    for wa, wb in zip(m_upu.weights, m_nn.weights):
        assert np.array_equal(wa, wb)
    for ta, tb in zip(tr_upu, tr_nn):
        assert ta.objective == tb.objective


def test_training_is_deterministic():
    data = _small_ss_dataset(n=120, seed=9)
    cfg = TrainerConfig(epochs=4, batch_size=30, seed=13)
    runs = []
    for _ in range(2):
        m = init([1, 8, 1], "relu", Rng(10))
        m, traces = train(data, cfg, m)
        runs.append((m, traces))
    for wa, wb in zip(runs[0][0].weights, runs[1][0].weights):
        assert np.array_equal(wa, wb)
    assert runs[0][1] == runs[1][1]


def test_a_shorter_run_traces_the_first_epochs_of_a_longer_one():
    # no schedule and a shuffle that depends only on the seed and the epoch:
    # one long run serves every shorter training budget
    pool = gaussian_mixture(800, 0.5, rng=Rng(21))
    pu = case_control_sample(pool, CaseControlConfig(c=0.9, pi=0.5, n=200), Rng(22))
    test = gaussian_mixture(100, 0.5, rng=Rng(23))
    runs = []
    for epochs in (3, 7):
        cfg = TrainerConfig(method="nnpu_ss", epochs=epochs, batch_size=50, seed=24)
        _, traces = train(pu, cfg, init([1, 8, 1], "relu", Rng(25)), test)
        # float.hex: equal text is equal bits, -0.0 included
        runs.append([[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(t)]
                     for t in traces])
    short, long = runs
    assert len(short) == 3 and len(long) == 7
    assert short == long[:3]


def test_divergence_raises_naming_epoch_and_batch():
    data = _small_ss_dataset(n=50, seed=14)
    broken = MLPModel(
        layer_dims=[1, 1],
        weights=[np.array([[1e308]])],
        biases=[np.array([0.0])],
        activation="tanh",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingError) as err:
            train(data, TrainerConfig(method="upu_cc", epochs=1, batch_size=50), broken)
    assert "epoch 0" in str(err.value)
    assert "batch 0" in str(err.value)


def test_divergence_is_an_error_under_a_warnings_filter():
    # numpy's overflow warnings, raised as errors here, must not preempt the
    # finite checks that report the divergence
    data = _small_ss_dataset(n=50, seed=14)
    test = gaussian_mixture(20, 0.5, rng=Rng(15))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cfg = TrainerConfig(method="upu_cc", epochs=5, batch_size=10, eta=1e300)
        with pytest.raises(TrainingError, match="non-finite objective"):
            train(data, cfg, init([1, 8, 1], "relu", Rng(16)), test)
        huge = init([1, 8, 1], "relu", Rng(16))
        huge.params *= 1e300
        with pytest.raises(ParameterError, match="scores must be finite"):
            evaluate(huge, test)


class _PerArrayAdam:
    """Adaptive moments stepped one parameter array at a time: the reference
    for ``train``'s adam-style step on the flat parameter vector."""

    def __init__(self, model, b1=0.9, b2=0.999, eps=1e-8):
        self.b1, self.b2, self.eps = b1, b2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in model.weights + model.biases]
        self.v = [np.zeros_like(p) for p in model.weights + model.biases]

    def step(self, model, grads, lr):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        params = zip(model.weights + model.biases, grads.weights + grads.biases)
        for (p, g), m, v in zip(params, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _two_pass_train(dataset, cfg, model, test):
    """``train``'s update rule with each batch gathered by its own index,
    run forward twice (once by ``forward`` for the risk, once more by
    ``forward_pass`` for ``backward``), fresh gradient arrays every batch,
    per-array steps (out of place for sgd), numpy epoch sums, and test
    accuracy as the mean of ``classify_scores`` hits."""
    loss = get_loss(cfg.loss)
    rng = Rng(cfg.seed)
    opt = _PerArrayAdam(model) if cfg.optimizer == "adam-style" else None
    n_batches = math.ceil(dataset.n / cfg.batch_size)
    traces = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(dataset.n)
        sums = np.zeros(4)
        truncated_batches = 0
        for b in range(n_batches):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            xb = dataset.x[idx]
            lab = dataset.s[idx] == 1
            g = forward(model, xb)
            comp = risk_components(g, lab, dataset.pi, cfg.mode, loss)
            nn_value, truncated = nnpu_risk(comp, cfg.beta)
            surrogate = cfg.is_nnpu and truncated
            value, upstream = comp.surrogate() if surrogate else comp.unbiased()
            objective = nn_value if cfg.is_nnpu else value
            truncated_batches += truncated
            sums += (comp.r_label, comp.r_dist, comp.r_corr, objective)
            grads = backward(model, forward_pass(model, xb), upstream)
            step = cfg.gamma * cfg.eta if surrogate else cfg.eta
            if opt is None:
                for p, g in zip(model.weights + model.biases, grads.weights + grads.biases):
                    p -= step * g
            else:
                opt.step(model, grads, step)
        means = sums / n_batches
        acc = float(np.mean(classify_scores(forward(model, test.x)) == test.y))
        traces.append(
            EpochTrace(epoch, *(float(v) for v in means), truncated_batches / n_batches, acc)
        )
    return model, traces


def _check_single_pass_matches_two_pass(method, optimizer, activation, loss):
    pool = gaussian_mixture(800, 0.5, rng=Rng(30))
    data = scar_label(pool, ScarConfig(c=0.3, n=200), Rng(31))
    eta = 0.1 if optimizer == "sgd" else 0.01
    if loss == "sigmoid":
        eta *= 10  # its flatter slopes reach the nnPU branch only with this step
    # 200 rows in batches of 30 leave a short last batch of 20
    cfg = TrainerConfig(
        method=method, gamma=0.5, eta=eta, epochs=3, batch_size=30,
        optimizer=optimizer, seed=33, loss=loss,
    )
    model = init([1, 8, 8, 1], activation, Rng(32))
    test = gaussian_mixture(150, 0.5, rng=Rng(34))
    reference, ref_traces = _two_pass_train(data, cfg, copy_model(model), test)
    trained, traces = train(data, cfg, model, test=test)
    if cfg.is_nnpu:
        assert any(t.truncation_fraction > 0 for t in traces)
    params = trained.weights + trained.biases
    ref_params = reference.weights + reference.biases
    assert all(np.array_equal(p, q) for p, q in zip(params, ref_params))
    assert traces == ref_traces


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("method", METHODS)
def test_single_pass_training_matches_two_pass_reference(method, optimizer):
    _check_single_pass_matches_two_pass(method, optimizer, "relu", "logistic")


# the grid trains relu with the logistic loss; these are the arithmetic
# paths it never runs
@pytest.mark.parametrize(
    "activation,loss", [("tanh", "logistic"), ("relu", "sigmoid"), ("tanh", "sigmoid")]
)
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("method", METHODS)
def test_single_pass_training_matches_two_pass_reference_other_arithmetic(
    method, optimizer, activation, loss
):
    _check_single_pass_matches_two_pass(method, optimizer, activation, loss)


def test_adam_style_optimizer_runs_and_differs_from_sgd():
    data = _small_ss_dataset(n=100, seed=15)
    m_sgd = init([1, 4, 1], "tanh", Rng(16))
    m_adam = copy_model(m_sgd)
    m_sgd, _ = train(data, TrainerConfig(epochs=2, batch_size=25, seed=3), m_sgd)
    m_adam, traces = train(
        data,
        TrainerConfig(epochs=2, batch_size=25, seed=3, optimizer="adam-style", eta=0.01),
        m_adam,
    )
    assert all(np.isfinite(t.objective) for t in traces)
    assert not np.array_equal(m_sgd.weights[0], m_adam.weights[0])


# ---------------------------------------------------------------------------
# batch_objective


def test_batch_objective_values_match_component_route():
    data = _small_ss_dataset(n=80, seed=17)
    model = init([1, 4, 1], "tanh", Rng(18))
    from puerm.risk import LOGISTIC

    obj = batch_objective(data.x, data.s, data.pi, LOGISTIC, [("ss", False)])
    (value,), (grads,) = obj(model)
    g = forward(model, data.x)
    lab = data.s == 1
    comp = risk_components(g, lab, data.pi, "ss")
    assert abs(value - comp.unbiased()[0]) < 1e-14
    assert len(grads.weights) == 2

    surr = batch_objective(data.x, data.s, data.pi, LOGISTIC, [("ss", True)])
    (value_s,), _ = surr(model)
    assert abs(value_s - (comp.r_corr - comp.r_dist)) < 1e-14


def test_batch_objective_entries_are_the_single_branch_bits():
    data = _small_ss_dataset(n=80, seed=17)
    model = init([1, 4, 1], "tanh", Rng(18))
    branches = [(SCENARIO_CC, True), (SCENARIO_SS, False), (SCENARIO_CC, False), (SCENARIO_SS, True)]
    obj = batch_objective(data.x, data.s, data.pi, LOGISTIC, branches)
    values, bundles = obj(model)
    assert obj(model, grad=False) == (values, None)
    assert len(values) == len(bundles) == 4
    assert len({id(b) for b in bundles}) == 4  # no bundle is shared
    for branch, value, bundle in zip(branches, values, bundles):
        (single_value,), (single,) = batch_objective(
            data.x, data.s, data.pi, LOGISTIC, [branch]
        )(model)
        assert value == single_value
        assert np.array_equal(bundle.flat, single.flat)


def test_batch_objective_validates_its_batch_once(monkeypatch):
    from puerm.risk import LOGISTIC

    data = _small_ss_dataset(n=40, seed=19)
    obj = batch_objective(data.x, data.s, data.pi, LOGISTIC, [("ss", False)])
    calls = _count_as_matrix(monkeypatch)
    model = init([1, 4, 1], "tanh", Rng(20))
    for _ in range(3):
        obj(model)
    assert calls == []
    # a model of another width is a ShapeError, not numpy's ValueError
    with pytest.raises(ShapeError, match="batch has 1 features, model expects 2"):
        obj(init([2, 4, 1], "tanh", Rng(21)))
    with pytest.raises(ShapeError):
        batch_objective([1.0, 2.0], [1, -1], 0.5, LOGISTIC, [("ss", False)])
    with pytest.raises(ParameterError):
        batch_objective([[np.nan]], [1], 0.5, LOGISTIC, [("ss", False)])


@pytest.mark.parametrize(
    "s,match",
    [
        ([1.7, 2, -1], "entries must be -1 or \\+1"),
        ([1, 0, -1], "entries must be -1 or \\+1"),
        ([1, -1], "must have length 3"),
        ([1, -1, -1, 1], "must have length 3"),
        ([[1, -1, -1]], "must have length 3"),
    ],
)
def test_batch_objective_validates_its_labels_when_built(s, match):
    x = np.linspace(-1.0, 1.0, 3)[:, None]
    with pytest.raises(DataError, match=match):
        batch_objective(x, s, 0.5, LOGISTIC, [(SCENARIO_SS, False)])


def test_batch_objective_needs_a_branch():
    with pytest.raises(ParameterError, match="at least one"):
        batch_objective(np.zeros((2, 1)), [1, -1], 0.5, LOGISTIC, [])


def _counting_loss(spec, counts):
    """``spec`` with its value and derivative calls counted in ``counts``."""

    def value(margin):
        counts["value"] += 1
        return spec.value(margin)

    def derivative(margin):
        counts["derivative"] += 1
        return spec.derivative(margin)

    return LossSpec(spec.kind, value, derivative)


@pytest.mark.parametrize("mode", [SCENARIO_SS, SCENARIO_CC])
@pytest.mark.parametrize("surrogate", [False, True])
def test_value_only_objective_makes_no_derivative_call(mode, surrogate):
    data = _small_ss_dataset(n=40, seed=23)
    model = init([1, 4, 1], "tanh", Rng(24))
    counts = {"value": 0, "derivative": 0}
    obj = batch_objective(
        data.x, data.s, data.pi, _counting_loss(LOGISTIC, counts), [(mode, surrogate)]
    )
    value, grads = obj(model, grad=False)
    assert grads is None
    assert counts == {"value": 1, "derivative": 0}
    full_value, grads = obj(model, grad=True)
    assert grads is not None
    assert counts == {"value": 2, "derivative": 1}
    assert full_value == value


@pytest.mark.parametrize("loss", ["logistic", "sigmoid"])
def test_training_makes_one_value_and_one_derivative_call_per_batch(monkeypatch, loss):
    from puerm import risk

    counts = {"value": 0, "derivative": 0}
    monkeypatch.setitem(risk.LOSSES, loss, _counting_loss(risk.LOSSES[loss], counts))
    data = _small_ss_dataset(n=110, seed=25)
    cfg = TrainerConfig(epochs=3, batch_size=25, seed=26, loss=loss)
    train(data, cfg, init([1, 4, 1], "relu", Rng(27)))
    batches = 3 * 5  # 110 rows in batches of 25, the last one short
    assert counts == {"value": batches, "derivative": batches}


def _grad_check_computing_every_gradient(model, objective, h=1e-5):
    """``grad_check`` of a one-branch objective as it was when every
    objective call, the +-h ones included, ran ``backward`` too: the
    reference for the value-only calls."""
    _, (analytic,) = objective(model)
    worst = 0.0
    for array, grad in zip(model.weights + model.biases, analytic.weights + analytic.biases):
        flat, gflat = array.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            (up,), _ = objective(model)
            flat[i] = orig - h
            (down,), _ = objective(model)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]) + abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("mode", [SCENARIO_SS, SCENARIO_CC])
@pytest.mark.parametrize("surrogate", [False, True])
def test_grad_check_asks_for_one_gradient(monkeypatch, activation, mode, surrogate):
    from puerm import trainer
    from puerm.risk import LOGISTIC

    rng = Rng(22)
    x = rng.normal(12, sd=1.5).reshape(6, 2)
    s = np.array([1, 1, -1, -1, -1, -1])
    model = init([2, 8, 8, 1], activation, rng.child(1))
    obj = batch_objective(x, s, 0.5, LOGISTIC, [(mode, surrogate)])
    value, _ = obj(model)
    assert obj(model, grad=False) == (value, None)
    backward_calls = []
    real_backward = trainer.backward
    monkeypatch.setattr(
        trainer, "backward", lambda *a: backward_calls.append(1) or real_backward(*a)
    )
    asked = []

    def counted(m, grad=True):
        asked.append(grad)
        return obj(m, grad=grad)

    err = grad_check(model, counted)
    n_params = sum(p.size for p in model.weights + model.biases)
    assert asked == [True] + [False] * (2 * n_params)
    assert len(backward_calls) == 1
    # the +-h values, and so the error, are the bits the full calls give
    assert err == _grad_check_computing_every_gradient(model, obj)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_grad_check_sweeps_every_branch_with_one_pass_per_point(monkeypatch, activation):
    from puerm import trainer

    rng = Rng(22)
    x = rng.normal(12, sd=1.5).reshape(6, 2)
    s = np.array([1, 1, -1, -1, -1, -1])
    model = init([2, 8, 8, 1], activation, rng.child(1))
    branches = [(SCENARIO_SS, False), (SCENARIO_CC, True), (SCENARIO_SS, True), (SCENARIO_CC, False)]
    singles = max(
        grad_check(model, batch_objective(x, s, 0.5, LOGISTIC, [branch]))
        for branch in branches
    )
    obj = batch_objective(x, s, 0.5, LOGISTIC, branches)
    log = []

    def logged(name, entry):
        real = getattr(trainer, name)
        monkeypatch.setattr(trainer, name, lambda *a: log.append(entry(a)) or real(*a))

    logged("forward_pass", lambda a: "forward")
    logged("risk_components", lambda a: ("risk", a[3], a[5]))  # mode, grad
    logged("backward", lambda a: "backward")

    def counted(m, grad=True):
        log.append(("call", grad))
        return obj(m, grad=grad)

    err = grad_check(model, counted)
    n_params = model.params.size
    first = [("call", True), "forward", ("risk", "ss", True), ("risk", "cc", True)]
    point = [("call", False), "forward", ("risk", "ss", False), ("risk", "cc", False)]
    assert log == first + ["backward"] * 4 + point * (2 * n_params)
    # one sweep over four branches has the bits of four one-branch sweeps
    assert err == singles


# ---------------------------------------------------------------------------
# classification + traces


def test_classify_scores_boundary_and_validation():
    out = classify_scores([0.0, -0.0, 1e-9, -1e-9])
    assert out.tolist() == [1, 1, 1, -1]
    with pytest.raises(ParameterError):
        classify_scores([1.0, np.nan])


def test_evaluate_scores_hard_predictions_in_percent():
    from puerm.datasets import LabeledDataset
    from puerm.metrics import confusion, scores

    model = init([1, 4, 1], "tanh", Rng(22))
    data = LabeledDataset(x=np.linspace(-2.0, 2.0, 9)[:, None], y=[1, -1] * 4 + [1])
    want = scores(confusion(classify_scores(forward(model, data.x)), data.y))
    assert evaluate(model, data) == want
    assert all(0.0 <= v <= 100.0 for v in want)


def test_evaluate_rejects_empty_set():
    from puerm.datasets import LabeledDataset

    model = init([1, 4, 1], "tanh", Rng(22))
    empty = LabeledDataset(x=np.empty((0, 1)), y=np.empty(0, dtype=np.int64))
    with pytest.raises(DataError, match="test set has no rows"):
        evaluate(model, empty)


def test_integration_accuracy_on_easy_mixture():
    root = Rng(20)
    pool = gaussian_mixture(2000, 0.5, rng=root.child(0))
    test = gaussian_mixture(500, 0.5, rng=root.child(1))
    data = scar_label(pool, ScarConfig(c=0.5, n=1000), root.child(2))
    model = init([1, 32, 32, 32, 32, 1], "relu", root.child(3))
    model, traces = train(data, TrainerConfig(method="nnpu_ss", seed=21), model, test=test)
    assert len(traces) == 50
    assert all(0.0 <= t.truncation_fraction <= 1.0 for t in traces)
    assert traces[-1].test_accuracy is not None
    preds = classify_scores(forward(model, test.x))
    assert float(np.mean(preds == test.y)) >= 0.9


def test_trace_round_trip(tmp_path):
    traces = [
        EpochTrace(0, 0.1, 0.2, 0.3, 0.05, 0.25, 0.875),
        EpochTrace(1, 0.09, 0.21, 0.31, 0.04, 0.0, None),
    ]
    path = tmp_path / "trace.csv"
    save_trace(traces, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)
    assert load_trace(path) == traces


def test_save_trace_writes_the_csv_of_each_field(tmp_path):
    traces = [
        EpochTrace(0, 0.1, 1e-300, -0.0, 0.05, 0.25, None),
        EpochTrace(1, -0.0, 0.1, 1e-300, 2.5e-17, 1.0, 0.1),
        EpochTrace(2, 1e-300, -0.0, 0.1, -0.0, 0.0, -0.0),
    ]
    path = tmp_path / "trace.csv"
    save_trace(traces, path)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TRACE_COLUMNS)
    for t in traces:
        w.writerow(["" if v is None else v for v in dataclasses.astuple(t)])
    assert path.read_bytes() == buf.getvalue().encode()


def test_trace_header_checked(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("epoch,loss\n0,0.5\n")
    with pytest.raises(FormatError):
        load_trace(path)


@pytest.mark.parametrize("row", ["1,0.1,0.2", "1,0.1,0.2,0.3,0.05,0.25,0.5,0.9"])
def test_trace_row_with_the_wrong_number_of_cells_names_its_line(tmp_path, row):
    path = tmp_path / "trace.csv"
    save_trace([EpochTrace(0, 0.1, 0.2, 0.3, 0.05, 0.25, 0.875)], path)
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(FormatError) as err:
        load_trace(path)
    assert str(err.value) == f"{path}: line 3: expected {len(TRACE_COLUMNS)} cells"


def test_trace_file_format_is_pinned(tmp_path):
    # the columns come from EpochTrace's field names; renaming a field must
    # not silently change the file format
    traces = [
        EpochTrace(0, 0.1, 0.2, 0.3, 0.05, 0.25, 0.875),
        EpochTrace(1, 0.09, 0.21, 0.31, 0.04, 0.0, None),
    ]
    path = tmp_path / "trace.csv"
    save_trace(traces, path)
    assert path.read_bytes() == (
        b"epoch,r_label,r_dist,r_corr,objective,truncation_fraction,test_accuracy\n"
        b"0,0.1,0.2,0.3,0.05,0.25,0.875\n"
        b"1,0.09,0.21,0.31,0.04,0.0,\n"
    )
