"""Property tests of risk_components on random batches, and of _sigmoid.

Each batch has a random size, labeled share, class prior and score
scale. The per-row gradients returned with the three components are
checked against central finite differences of the components, in both
modes and for both losses, and the single-sample uPU value is checked
against the regrouped closed form. The one value and one derivative
call that ``risk_components`` makes per batch are checked bit for bit
against one call per argument, and so are the values it gives without
gradients. The mask-free ``_sigmoid`` is checked
bit for bit against the two-branch masked form on any float input, and
so is the logistic derivative against the negated form.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from puerm.datasets import SCENARIO_SS, SCENARIOS
from puerm.risk import (
    LOGISTIC,
    SIGMOID,
    _sigmoid,
    empirical_risk_ss_regrouped,
    loss_logistic_derivative,
    risk_components,
)

COMPONENTS = ("label", "dist", "corr")


@st.composite
def batches(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    scale = draw(st.floats(min_value=0.1, max_value=10.0))
    g = scale * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    labeled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pi = draw(st.floats(min_value=0.05, max_value=0.95))
    return g, labeled, pi


def _values(g, labeled, pi, mode, loss):
    comp = risk_components(g, labeled, pi, mode, loss)
    return np.array([comp.r_label, comp.r_dist, comp.r_corr])


@pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID], ids=lambda spec: spec.kind)
@pytest.mark.parametrize("mode", SCENARIOS)
@settings(max_examples=40, deadline=None)
@given(batch=batches())
def test_component_gradients_match_finite_differences(batch, mode, loss):
    g, labeled, pi = batch
    comp = risk_components(g, labeled, pi, mode, loss)
    analytic = np.stack([comp.d_label, comp.d_dist, comp.d_corr], axis=1)
    h = 1e-5
    for i in range(g.size):
        step = np.zeros_like(g)
        step[i] = h
        up = _values(g + step, labeled, pi, mode, loss)
        down = _values(g - step, labeled, pi, mode, loss)
        numeric = (up - down) / (2.0 * h)
        for k, name in enumerate(COMPONENTS):
            assert abs(analytic[i, k] - numeric[k]) <= 1e-7, (name, i)


@pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID], ids=lambda spec: spec.kind)
@settings(max_examples=100, deadline=None)
@given(batch=batches())
def test_single_sample_upu_equals_regrouped_form(batch, loss):
    g, labeled, pi = batch
    assume(labeled.any())
    comp = risk_components(g, labeled, pi, SCENARIO_SS, loss)
    pooled = comp.unbiased()[0]
    regrouped = empirical_risk_ss_regrouped(g[labeled], g[~labeled], pi, loss)
    # relative to the size of the terms, which bounds the rounding of both sums
    scale = comp.r_label + comp.r_dist + comp.r_corr
    assert abs(pooled - regrouped) <= 1e-12 * scale


def _sigmoid_two_branch(t):
    """1 / (1 + e^-t) on the rows with t >= 0 and e^t / (1 + e^t) on the
    rest, each branch evaluated only on its own masked rows."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def _same_bits(a, b) -> bool:
    """Identical float64 bit patterns, any nan matching any nan."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    same = a.view(np.int64) == b.view(np.int64)
    return a.shape == b.shape and bool(np.all(same | (np.isnan(a) & np.isnan(b))))


# signed zeros, infinities, nan, the edge of exp underflow (|t| near 745)
# and the smallest and largest magnitudes
SIGMOID_EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 745.2, -745.2,
    746.0, -746.0, 800.0, -800.0, 5e-324, -5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308,
]
ANY_FLOAT = st.one_of(st.sampled_from(SIGMOID_EDGES), st.floats())


@settings(max_examples=200, deadline=None)
@given(values=st.lists(ANY_FLOAT, max_size=40))
@example(values=SIGMOID_EDGES)
def test_sigmoid_matches_two_branch_form_bit_for_bit(values):
    t = np.array(values, dtype=np.float64)
    got = _sigmoid(t)
    assert isinstance(got, np.ndarray)
    assert _same_bits(got, _sigmoid_two_branch(t))
    for v in values:
        scalar = _sigmoid(v)
        assert isinstance(scalar, float)
        assert _same_bits(scalar, _sigmoid_two_branch(v))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(ANY_FLOAT, max_size=40))
@example(values=SIGMOID_EDGES)
def test_logistic_derivative_is_the_negated_sigmoid_bit_for_bit(values):
    m = np.array(values, dtype=np.float64)
    assert _same_bits(loss_logistic_derivative(m), -_sigmoid_two_branch(-m))
    for v in values:
        scalar = loss_logistic_derivative(v)
        assert isinstance(scalar, float)
        assert _same_bits(scalar, -_sigmoid_two_branch(-v))


COMPONENT_FIELDS = ("r_label", "r_dist", "r_corr", "d_label", "d_dist", "d_corr")


def _components_from_separate_calls(g, lab, pi, mode, loss):
    """The components with one loss call per argument, l(-g), l(g_L),
    l'(-g) and l'(g), as (r_label, r_dist, r_corr, d_label, d_dist, d_corr)."""
    n_l = int(lab.sum())
    n_u = g.size - n_l
    neg = loss.value(-g)
    dneg = loss.derivative(-g)
    zeros = np.zeros_like(g)
    if n_l > 0:
        w = pi / n_l
        r_label = pi * (float(loss.value(g[lab]).sum()) / n_l)
        r_corr = pi * (float(neg[lab].sum()) / n_l)
        d_label = np.where(lab, w * loss.derivative(g), 0.0)
        d_corr = np.where(lab, -(w * dneg), 0.0)
    else:
        r_label = r_corr = 0.0
        d_label = d_corr = zeros
    if mode == SCENARIO_SS:
        r_dist = (float(neg[lab].sum()) + float(neg[~lab].sum())) / g.size
        d_dist = -dneg / g.size
    elif n_u > 0:
        r_dist = float(neg[~lab].sum()) / n_u
        d_dist = np.where(~lab, -dneg / n_u, 0.0)
    else:
        r_dist, d_dist = 0.0, zeros
    return r_label, r_dist, r_corr, d_label, d_dist, d_corr


@st.composite
def batches_by_labeled_share(draw):
    """A batch whose rows are all unlabeled, all labeled, or a mix of both,
    with scores out to where exp(-|g|) underflows."""
    share = draw(st.sampled_from(("none", "all", "mix")))
    n = draw(st.integers(min_value=2 if share == "mix" else 1, max_value=30))
    margin = st.floats(min_value=-800.0, max_value=800.0, allow_nan=False)
    g = np.array(draw(st.lists(margin, min_size=n, max_size=n)))
    if share == "mix":
        labeled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(labeled.any() and not labeled.all())
    else:
        labeled = np.full(n, share == "all")
    pi = draw(st.floats(min_value=0.05, max_value=0.95))
    return g, labeled, pi


@pytest.mark.parametrize("loss", [LOGISTIC, SIGMOID], ids=lambda spec: spec.kind)
@pytest.mark.parametrize("mode", SCENARIOS)
@settings(max_examples=60, deadline=None)
@given(batch=batches_by_labeled_share())
def test_one_call_per_side_matches_separate_calls_bit_for_bit(batch, mode, loss):
    g, labeled, pi = batch
    comp = risk_components(g, labeled, pi, mode, loss)
    want = _components_from_separate_calls(g, labeled, pi, mode, loss)
    for name, expected in zip(COMPONENT_FIELDS, want):
        assert _same_bits(getattr(comp, name), expected), name
    # without gradients: the same value bits, and no gradient arrays
    values = risk_components(g, labeled, pi, mode, loss, grad=False)
    for name, expected in zip(COMPONENT_FIELDS[:3], want):
        assert _same_bits(getattr(values, name), expected), name
    assert (values.d_label, values.d_dist, values.d_corr) == (None, None, None)
    assert values.unbiased() == (comp.unbiased()[0], None)
    assert values.surrogate() == (comp.surrogate()[0], None)
