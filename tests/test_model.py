"""Tests for the feed-forward scorer: init, forward, exact gradients, IO."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from oracles import copy_model, load_model
from puerm.datasets import SCENARIO_CC
from puerm.errors import ParameterError, ShapeError
from puerm.model import (
    GradientBundle,
    CHECKPOINT_FORMAT,
    MLPModel,
    backward,
    forward,
    forward_pass,
    grad_check,
    init,
    save_model,
)
from puerm.numerics import Rng
from puerm.risk import risk_components


def _linear_model(w, b):
    """One-layer model computing g(x) = w*x + b on scalar inputs."""
    return MLPModel(
        layer_dims=[1, 1],
        weights=[np.array([[float(w)]])],
        biases=[np.array([float(b)])],
        activation="tanh",
    )


# ---------------------------------------------------------------------------
# init


def test_init_shapes_and_zero_biases():
    m = init([4, 8, 8, 8, 8, 1], "relu", Rng(0))
    assert len(m.weights) == 5
    assert len(m.biases) == 5
    assert [w.shape for w in m.weights] == [
        (8, 4),
        (8, 8),
        (8, 8),
        (8, 8),
        (1, 8),
    ]
    for b in m.biases:
        assert np.all(b == 0.0)
    assert m.input_dim == 4


@pytest.mark.parametrize(
    "activation,gain", [("relu", 2.0), ("tanh", 1.0)]
)
def test_init_weight_scale_tracks_fan_in(activation, gain):
    # wide layer so the sample variance is a tight estimate
    m = init([200, 300, 1], activation, Rng(1))
    observed = np.var(m.weights[0])
    expected = gain / 200.0
    assert abs(observed - expected) < 4 * expected * math.sqrt(2.0 / (300 * 200))


def test_init_validation():
    with pytest.raises(ParameterError):
        init([3], "relu", Rng(0))
    with pytest.raises(ParameterError):
        init([3, 4, 2], "relu", Rng(0))  # output must be scalar
    with pytest.raises(ParameterError):
        init([3, 0, 1], "relu", Rng(0))
    with pytest.raises(ParameterError):
        init([3, 4, 1], "gelu", Rng(0))


@pytest.mark.parametrize(
    "weights,biases",
    [
        # each weight matrix transposed
        ([np.zeros((3, 1)), np.zeros((1, 4))], [np.zeros(3), np.zeros(1)]),
        # a bias of the wrong rank
        ([np.zeros((4, 1)), np.zeros((1, 4))], [np.zeros(4), np.zeros((1, 1))]),
        # a layer too few, and weights without their biases
        ([np.zeros((4, 1))], [np.zeros(4)]),
        ([np.zeros((4, 1)), np.zeros((1, 4))], [np.zeros(4)]),
    ],
)
def test_construction_checks_arrays_against_layer_dims(weights, biases):
    with pytest.raises(ShapeError):
        MLPModel([1, 4, 1], weights, biases, "tanh")


def test_models_and_gradient_bundles_compare_by_identity():
    m = init([1, 4, 1], "tanh", Rng(20))
    copy_ = copy_model(m)
    assert m == m and m != copy_
    g = GradientBundle.like(m)
    assert g == g and g != GradientBundle.like(m)
    x = np.zeros((3, 1))
    fp = forward_pass(m, x)
    assert fp == fp and fp != forward_pass(m, x)
    lab = np.array([True, False, False])
    comp = risk_components(fp.scores, lab, 0.5, SCENARIO_CC)
    assert comp == comp and comp != risk_components(fp.scores, lab, 0.5, SCENARIO_CC)


def test_init_is_deterministic():
    a = init([2, 16, 1], "tanh", Rng(42))
    b = init([2, 16, 1], "tanh", Rng(42))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# ---------------------------------------------------------------------------
# forward


def test_forward_linear_hand_case():
    m = _linear_model(2.0, 1.0)
    x = np.array([[0.5], [-1.0], [0.0]])
    assert np.allclose(forward(m, x), [2.0, -1.0, 1.0], atol=1e-15)


def test_forward_one_hidden_unit_hand_case():
    # g(x) = 0.5 * act(3x - 1) + 0.25 for both activations
    for activation, act in (("tanh", np.tanh), ("relu", lambda z: np.maximum(z, 0.0))):
        m = MLPModel(
            layer_dims=[1, 1, 1],
            weights=[np.array([[3.0]]), np.array([[0.5]])],
            biases=[np.array([-1.0]), np.array([0.25])],
            activation=activation,
        )
        for xv in (-0.7, 0.2, 1.4):
            expected = 0.5 * act(3.0 * xv - 1.0) + 0.25
            got = forward(m, [[xv]])[0]
            assert abs(got - expected) < 1e-15


def test_forward_matches_per_row_loop():
    rng = Rng(2)
    m = init([3, 6, 5, 1], "tanh", rng)
    x = rng.normal(3 * 20).reshape(20, 3)
    batch = forward(m, x)

    def one_row(row):
        a = row
        for k, (w, b) in enumerate(zip(m.weights, m.biases)):
            z = w @ a + b
            a = z if k == len(m.weights) - 1 else np.tanh(z)
        return a[0]

    rows = np.array([one_row(x[i]) for i in range(20)])
    assert np.max(np.abs(batch - rows)) < 1e-14


def test_forward_input_validation():
    m = init([3, 4, 1], "relu", Rng(3))
    with pytest.raises(ShapeError):
        forward(m, np.zeros((5, 2)))
    with pytest.raises(ParameterError):
        forward(m, np.array([[1.0, 2.0, np.nan]]))


@pytest.mark.parametrize(
    "batch, error",
    [
        (np.zeros(3), ShapeError),
        (np.zeros((2, 2, 3)), ShapeError),
        (np.zeros((5, 4)), ShapeError),
        (np.array([[0.0, -np.inf, 1.0]]), ParameterError),
    ],
    ids=["vector", "cube", "four_cols", "minus_inf"],
)
def test_forward_checks_the_batch_forward_pass_trusts(batch, error):
    # forward_pass takes a validated matrix; forward is the checked entry
    with pytest.raises(error):
        forward(init([3, 4, 1], "tanh", Rng(3)), batch)


@pytest.mark.parametrize(
    "coerce",
    [lambda x: x.tolist(), lambda x: np.asfortranarray(x), lambda x: x.astype(np.int64)],
    ids=["lists", "fortran", "ints"],
)
def test_forward_coerces_before_forward_pass(coerce):
    m = init([3, 5, 1], "relu", Rng(4))
    x = np.arange(-6.0, 6.0).reshape(4, 3)
    assert _same_bits(forward(m, coerce(x)), forward_pass(m, x).scores)


def _matmul_reference(model, x, upstream):
    """Forward pass and gradients written with ``@``: the layer outputs,
    pre-activations and weight and bias gradients, in layer order."""
    relu = model.activation == "relu"
    zs, acts = [], [x]
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(z if k == last else (np.maximum(z, 0.0) if relu else np.tanh(z)))
    gw, gb = [None] * len(zs), [None] * len(zs)
    delta = upstream[:, None]
    for k in range(last, -1, -1):
        gw[k] = delta.T @ acts[k]
        gb[k] = delta.sum(axis=0)
        if k > 0:
            z = zs[k - 1]
            deriv = (z > 0.0) if relu else 1.0 - np.tanh(z) * np.tanh(z)
            delta = (delta @ model.weights[k]) * deriv
    return zs, acts, gw, gb


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("rows", [1, 6, 100])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_pass_and_gradients_match_matmul_reference_bit_for_bit(dim, rows, activation):
    # dim 1 and the (n, 1) output give products with an inner dimension
    # of 1, which ``@`` and ``np.dot`` send down different code paths
    rng = Rng(100 * dim + rows)
    m = init([dim, 32, 32, 32, 32, 1], activation, rng.child(0))
    for b in m.biases:
        b += rng.child(1).normal(b.size, sd=0.1)
    x = rng.child(2).normal(rows * dim, sd=2.0).reshape(rows, dim)
    u = rng.child(3).normal(rows)
    _, acts, gw, gb = _matmul_reference(m, x, u)
    fp = forward_pass(m, x)
    grads = backward(m, fp, u)
    assert _same_bits(fp.scores, acts[-1][:, 0])
    assert _same_bits(forward(m, x), acts[-1][:, 0])
    # the reference takes each activation's derivative from its
    # pre-activation; the pass keeps only the layer inputs
    assert len(fp.acts) == len(acts)
    for got, want in zip(fp.acts, acts):
        assert _same_bits(got, want)
    for got, want in zip(grads.weights + grads.biases, gw + gb):
        assert _same_bits(got, want)


# ---------------------------------------------------------------------------
# backward


def test_backward_linear_hand_case():
    # g = w*x + b, objective sum_i u_i g(x_i):
    # d/dw = sum u_i x_i, d/db = sum u_i
    m = _linear_model(2.0, 1.0)
    x = np.array([[0.5], [-1.0], [2.0]])
    u = np.array([1.0, 3.0, -0.5])
    g = backward(m, forward_pass(m, x), u)
    assert abs(g.weights[0][0, 0] - (0.5 - 3.0 - 1.0)) < 1e-15
    assert abs(g.biases[0][0] - 3.5) < 1e-15


def test_backward_upstream_shape_checked():
    m = init([2, 3, 1], "tanh", Rng(4))
    with pytest.raises(ShapeError):
        backward(m, forward_pass(m, np.zeros((4, 2))), np.zeros(3))


@pytest.mark.parametrize("activation,tol", [("tanh", 1e-8), ("relu", 1e-6)])
def test_backward_matches_central_differences(activation, tol):
    rng = Rng(5)
    m = init([2, 6, 4, 1], activation, rng)
    x = rng.normal(2 * 9).reshape(9, 2)
    u = rng.normal(9)
    if activation == "relu":
        # keep pre-activations away from the kink so the finite
        # difference is a valid probe of the analytic piece
        zs = _matmul_reference(m, x, u)[0]
        assert min(np.min(np.abs(z)) for z in zs[:-1]) > 1e-3

    analytic = backward(m, forward_pass(m, x), u)
    h = 1e-6

    def value():
        return float(np.dot(u, forward(m, x)))

    for arr, grad in list(zip(m.weights, analytic.weights)) + list(
        zip(m.biases, analytic.biases)
    ):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = value()
            flat[i] = orig - h
            down = value()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            assert abs(gflat[i] - numeric) <= tol * max(1.0, abs(numeric))


def test_grad_check_accepts_exact_gradients():
    rng = Rng(6)
    m = init([2, 5, 1], "tanh", rng)
    x = rng.normal(2 * 6).reshape(6, 2)
    u = rng.normal(6)

    def objective(model, grad=True):
        fp = forward_pass(model, x)
        return float(np.dot(u, fp.scores)), backward(model, fp, u)

    assert grad_check(m, objective) < 1e-6


def test_grad_check_flags_tampered_gradients():
    rng = Rng(7)
    m = init([2, 5, 1], "tanh", rng)
    x = rng.normal(2 * 6).reshape(6, 2)
    u = rng.normal(6)

    def objective(model, grad=True):
        value = float(np.dot(u, forward(model, x)))
        grads = backward(model, forward_pass(model, x), u)
        grads.weights[0][0, 0] += 0.5
        return value, grads

    assert grad_check(m, objective) > 1e-2


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = Rng(9)
    m = init([3, 7, 1], "relu", rng)
    x = rng.normal(3 * 11).reshape(11, 3)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert np.array_equal(forward(m, x), forward(loaded, x))
    assert loaded.activation == "relu"
    assert loaded.layer_dims == [3, 7, 1]


@pytest.mark.parametrize(
    "value",
    [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.1, 1.0 / 3.0, 2.0**53 + 2.0],
    ids=["minus_zero", "least_subnormal", "least_normal", "greatest", "minus_tenth", "third", "past_2_53"],
)
def test_checkpoint_round_trip_keeps_every_bit(tmp_path, value):
    m = init([2, 3, 1], "tanh", Rng(14))
    m.weights[0][1, 0] = value
    m.biases[1][0] = -value
    path = tmp_path / "model.json"
    save_model(m, path)
    assert _same_bits(load_model(path).params, m.params)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("dims", [[1, 1], [2, 4, 1], [3, 5, 4, 1]], ids=["linear", "one_hidden", "two_hidden"])
def test_checkpoint_is_plain_json_of_the_whole_model(tmp_path, dims, activation):
    import json

    m = init(dims, activation, Rng(15))
    path = tmp_path / "model.json"
    save_model(m, path)
    # strict JSON: a non-finite parameter would need a NaN or Infinity token
    doc = json.loads(path.read_text(), parse_constant=pytest.fail)
    assert doc["format"] == CHECKPOINT_FORMAT
    assert doc["layer_dims"] == dims and doc["activation"] == activation
    loaded = load_model(path)
    assert loaded.layer_dims == dims and loaded.activation == activation
    assert _same_bits(loaded.params, m.params)


# ---------------------------------------------------------------------------
# the flat parameter vector


def _built_models(tmp_path):
    """The same two-layer model made each way a model can be made."""
    base = init([2, 3, 1], "tanh", Rng(13))
    path = tmp_path / "model.json"
    save_model(base, path)
    ints = MLPModel(
        layer_dims=[2, 3, 1],
        weights=[np.arange(6).reshape(3, 2), np.array([[1, -2, 3]])],
        biases=[np.array([0, 1, 2]), np.array([-1])],
        activation="relu",
    )
    fortran = MLPModel(
        layer_dims=[2, 3, 1],
        weights=[np.asfortranarray(w) for w in base.weights],
        biases=list(base.biases),
        activation="tanh",
    )
    return {
        "init": base,
        "load_model": load_model(path),
        "copy": copy_model(base),
        "replace": dataclasses.replace(base),
        "ints": ints,
        "fortran": fortran,
    }


@pytest.mark.parametrize(
    "how", ["init", "load_model", "copy", "replace", "ints", "fortran"]
)
def test_layers_are_views_of_the_flat_vector(tmp_path, how):
    m = _built_models(tmp_path)[how]
    arrays = m.weights + m.biases
    assert m.params.dtype == np.float64 and m.params.flags.c_contiguous
    # weights, then biases, each C-ordered
    assert _same_bits(m.params, np.concatenate([a.ravel() for a in arrays]))
    offset = 0
    for a in arrays:
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.base is m.params
        assert np.shares_memory(a, m.params[offset : offset + a.size])
        offset += a.size
    assert offset == m.params.size
    # an edit through either side is seen by the other
    m.weights[0][1, 0] = 7.5
    m.biases[-1] += 0.25
    assert m.params[2] == 7.5
    assert m.params[-1] == m.biases[-1][0]
    m.params[0] = -3.0
    m.params[-2] = 4.0
    assert m.weights[0][0, 0] == -3.0
    assert m.biases[0][-1] == 4.0


def test_copies_do_not_share_the_vector(tmp_path):
    models = _built_models(tmp_path)
    base = models["init"]
    for how in ("copy", "replace", "load_model", "fortran"):
        assert not np.shares_memory(models[how].params, base.params), how
        assert _same_bits(models[how].params, base.params), how


def _reuse_batches(rng, sizes):
    m = init([2, 16, 16, 1], "relu", rng.child(0))
    for b in m.biases:
        b += rng.child(1).normal(b.size, sd=0.1)
    batches = []
    for k, rows in enumerate(sizes):
        x = rng.child(10 + k).normal(2 * rows).reshape(rows, 2)
        batches.append((forward_pass(m, x), rng.child(20 + k).normal(rows)))
    return m, batches


def test_backward_into_a_reused_buffer_matches_fresh_arrays():
    # three batches, the last one short, all written into one buffer
    m, batches = _reuse_batches(Rng(14), [30, 30, 7])
    buf = GradientBundle.like(m)
    buf.flat[:] = np.nan  # every element must be written
    for fp, u in batches:
        out = backward(m, fp, u, out=buf)
        assert out is buf
        fresh = backward(m, fp, u)
        assert _same_bits(buf.flat, fresh.flat)
        for got, want in zip(buf.weights + buf.biases, fresh.weights + fresh.biases):
            assert got.base is buf.flat
            assert _same_bits(got, want)


def test_training_repacks_a_rebound_layer():
    # a list entry rebound after construction is no view of params; a run
    # must train the values the layers read, not the old vector
    from puerm.datasets import gaussian_mixture
    from puerm.sampling import ScarConfig, scar_label
    from puerm.trainer import TrainerConfig, train

    pool = gaussian_mixture(400, 0.5, rng=Rng(15))
    data = scar_label(pool, ScarConfig(c=0.5, n=100), Rng(16))
    cfg = TrainerConfig(epochs=2, batch_size=25, seed=17)
    rebound = init([1, 4, 1], "tanh", Rng(18))
    new_first = np.full((4, 1), 0.3)
    rebound.weights[0] = new_first
    fresh = MLPModel([1, 4, 1], [new_first, rebound.weights[1]], rebound.biases, "tanh")
    deep = copy.deepcopy(fresh)  # its arrays are copies, no views of its params
    for m in (rebound, fresh, deep):
        train(data, cfg, m)
        assert all(a.base is m.params for a in m.weights + m.biases)
    assert _same_bits(rebound.params, fresh.params)
    assert _same_bits(deep.params, fresh.params)
    assert not np.array_equal(fresh.weights[0], new_first)
    # grad_check perturbs params too, so it repacks the same way
    stale = init([1, 4, 1], "tanh", Rng(19))
    stale.biases[0] = np.full(4, 0.1)
    x, u = np.linspace(-1.0, 1.0, 5)[:, None], np.arange(5.0) - 1.0

    def objective(model, grad=True):
        fp = forward_pass(model, x)
        return float(np.dot(u, fp.scores)), backward(model, fp, u) if grad else None

    assert grad_check(stale, objective) < 1e-6
