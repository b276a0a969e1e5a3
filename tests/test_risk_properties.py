"""Property tests of risk_components on random batches.

Each batch has a random size, labeled share, class prior and score
scale. The per-row gradients returned with the three components are
checked against central finite differences of the components, in both
modes and for both losses, and the single-sample uPU value is checked
against the regrouped closed form.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from puerm.risk import (
    LOGISTIC,
    MODE_SS,
    MODES,
    SIGMOID,
    empirical_risk_ss_regrouped,
    risk_components,
    upu_risk,
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
@pytest.mark.parametrize("mode", MODES)
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
    comp = risk_components(g, labeled, pi, MODE_SS, loss)
    pooled = upu_risk(comp)
    regrouped = empirical_risk_ss_regrouped(g[labeled], g[~labeled], pi, loss)
    # relative to the size of the terms, which bounds the rounding of both sums
    scale = comp.r_label + comp.r_dist + comp.r_corr
    assert abs(pooled - regrouped) <= 1e-12 * scale
