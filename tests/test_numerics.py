"""Tests for the matrix helpers and the reproducible random stream."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puerm.errors import ParameterError, ShapeError
from puerm.numerics import Rng, as_matrix


# ---------------------------------------------------------------------------
# as_matrix


def test_as_matrix_coerces_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)
    assert m.flags["C_CONTIGUOUS"]


def test_as_matrix_shape_checks():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix([[1.0, 2.0]], cols=3)
    with pytest.raises(ParameterError):
        as_matrix([[np.inf, 0.0]])


# ---------------------------------------------------------------------------
# Rng determinism


def test_same_seed_same_stream():
    a = Rng(123).uniform(100)
    b = Rng(123).uniform(100)
    assert np.array_equal(a, b)


def test_golden_values_frozen():
    # Frozen outputs guard against accidental changes to the stream
    # construction (bit generator, seeding, or draw order).
    u = Rng(12345).uniform(4)
    assert np.allclose(
        u,
        [
            0.22733602246716966,
            0.31675833970975287,
            0.7973654573327341,
            0.6762546707509746,
        ],
        rtol=0,
        atol=0,
    )
    z = Rng(12345).normal(3)
    assert np.allclose(
        z,
        [0.2106015971678891, -0.6866360137952173, -0.3901085992748607],
        rtol=0,
        atol=0,
    )
    p = Rng(12345).permutation(10)
    assert list(p) == [7, 0, 1, 5, 4, 6, 8, 3, 2, 9]
    s = Rng(12345).sample_without_replacement(10, 4)
    assert list(s) == [2, 3, 8, 7]
    cu = Rng(12345).child(7).uniform(2)
    assert np.allclose(
        cu, [0.9830252332964733, 0.6930299356569128], rtol=0, atol=0
    )


def test_children_are_distinct_and_reproducible():
    root = Rng(99)
    a = root.child(0).uniform(50)
    b = root.child(1).uniform(50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, Rng(99).child(0).uniform(50))
    # deriving children does not consume parent draws
    assert np.array_equal(root.uniform(5), Rng(99).uniform(5))


def test_seed_validation():
    with pytest.raises(ParameterError):
        Rng(-1)
    with pytest.raises(ParameterError):
        Rng(2**64)


# ---------------------------------------------------------------------------
# uniform


def test_uniform_range_and_moments():
    u = Rng(5).uniform(100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # mean of U(0,1): sd of the sample mean is 1/sqrt(12 n)
    se = 1.0 / math.sqrt(12 * u.size)
    assert abs(u.mean() - 0.5) < 4 * se
    assert abs(u.var() - 1.0 / 12.0) < 4 * se


def test_uniform_zero_length():
    assert Rng(1).uniform(0).shape == (0,)
    with pytest.raises(ParameterError):
        Rng(1).uniform(-1)


# ---------------------------------------------------------------------------
# normal


def test_normal_recomputed_from_uniform_stream():
    # The transform consumes two blocks of ceil(n/2) uniforms; rebuilding
    # the draws from an identically seeded stream must match exactly.
    n = 7
    z = Rng(31).normal(n)
    m = (n + 1) // 2
    mirror = Rng(31)
    u1 = mirror.uniform(m)
    u2 = mirror.uniform(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    expected = np.empty(2 * m)
    expected[0::2] = r * np.cos(theta)
    expected[1::2] = r * np.sin(theta)
    assert np.array_equal(z, expected[:n])


def test_normal_moments():
    z = Rng(17).normal(200_000, mean=3.0, sd=2.0)
    se = 2.0 / math.sqrt(z.size)
    assert abs(z.mean() - 3.0) < 4 * se
    # sd of the sample sd is roughly sd/sqrt(2n)
    assert abs(z.std() - 2.0) < 4 * 2.0 / math.sqrt(2 * z.size)


def test_normal_parameter_validation():
    with pytest.raises(ParameterError):
        Rng(1).normal(10, sd=0.0)
    with pytest.raises(ParameterError):
        Rng(1).normal(-2)
    assert Rng(1).normal(0).shape == (0,)


# ---------------------------------------------------------------------------
# permutation / subset draws


def test_permutation_is_a_permutation():
    p = Rng(3).permutation(1000)
    assert np.array_equal(np.sort(p), np.arange(1000))


def test_permutation_varies_with_seed():
    firsts = {Rng(s).permutation(50)[0] for s in range(40)}
    assert len(firsts) > 10


def _one_pair(n):
    u = Rng(7).uniform(n)
    u[-1:] = u[:1]  # the last uniform repeats the first
    return u


# Uniform streams with ties. Equal uniforms must keep index order, which an
# unstable sort alone need not do.
TIED_STREAMS = {
    "all-equal": lambda n: np.full(n, 0.5),
    "adjacent-pairs": lambda n: np.repeat(Rng(7).uniform((n + 1) // 2), 2)[:n],
    "spread-pairs": lambda n: np.tile(Rng(7).uniform((n + 1) // 2), 2)[:n],
    "few-values": lambda n: np.floor(Rng(7).uniform(n) * 8) / 8,
    "one-pair": _one_pair,
}


@pytest.mark.parametrize("stream", [None, *TIED_STREAMS])
@pytest.mark.parametrize("n", [0, 1, 2, 1000, 4000])
def test_permutation_is_the_stable_argsort_of_its_uniforms(monkeypatch, n, stream):
    if stream is None:
        u = Rng(n).uniform(n)
    else:
        u = TIED_STREAMS[stream](n)
        monkeypatch.setattr(Rng, "uniform", lambda self, count: u[:count])
    assert np.array_equal(Rng(n).permutation(n), np.argsort(u, kind="stable"))


def test_sample_without_replacement_properties():
    r = Rng(8)
    s = r.sample_without_replacement(100, 30)
    assert s.shape == (30,)
    assert len(set(s.tolist())) == 30
    assert s.min() >= 0 and s.max() < 100
    full = Rng(8).sample_without_replacement(20, 20)
    assert np.array_equal(np.sort(full), np.arange(20))
    with pytest.raises(ParameterError):
        Rng(8).sample_without_replacement(5, 6)


def _dense_draw(rng, n, k):
    """The sampler as a dense swap loop over all of range(n): the oracle
    the vectorised draw must match index for index."""
    if k == n:
        return rng.permutation(n)
    idx = np.arange(n, dtype=np.int64)
    u = rng.uniform(k)
    for i in range(k):
        j = i + int(u[i] * (n - i))
        if j >= n:
            j = n - 1
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k].copy()


def _assert_same_draw(n, k, seed):
    got = Rng(seed).sample_without_replacement(n, k)
    want = _dense_draw(Rng(seed), n, k)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@st.composite
def _sizes(draw):
    n = draw(st.integers(1, 5000))
    return n, draw(st.integers(0, n))


@settings(max_examples=300, deadline=None)
@given(_sizes(), st.integers(0, 2**64 - 1))
@example((2, 1), 2**64 - 1)
@example((5000, 4999), 3)
def test_sample_without_replacement_matches_dense_loop(size, seed):
    _assert_same_draw(*size, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
def test_sample_without_replacement_edge_sizes(n):
    for k in (0, n - 1, n):
        _assert_same_draw(n, k, n)


def _aim(n, k, j):
    """Uniforms that make step i aim at position j[i] (i <= j[i] < n)."""
    i = np.arange(k)
    return (j - i + 0.5) / (n - i)


# Crafted streams u(n, k) and, where it is simple, the draw they force.
CRAFTED = {
    # j[i] = i: no step swaps anything
    "zeros": (lambda n, k: np.zeros(k), lambda n, k: np.arange(k)),
    # the largest double below 1: every step aims at position n - 1
    "below-one": (lambda n, k: np.full(k, 1.0 - 2.0**-53), None),
    # u = 1 makes u*(n-i) equal n-i, so j = n is clamped to n - 1
    "clamp": (lambda n, k: np.ones(k), None),
    # a few targets hit in interleaved order: an unstable sort of j breaks
    "few-targets": (
        lambda n, k: _aim(n, k, np.maximum(np.arange(k), n - 1 - (7 * np.arange(k)) % 5)),
        None,
    ),
    # j[i] = i + 1 carries value 0 forward through every step, so each
    # displaced value ends a chain as long as k: the most rounds of
    # pointer doubling
    "chain": (lambda n, k: _aim(n, k, np.arange(1, k + 1)), lambda n, k: np.arange(1, k + 1)),
}


@pytest.mark.parametrize("name", CRAFTED)
def test_sample_without_replacement_crafted_streams(monkeypatch, name):
    u_of, expected = CRAFTED[name]
    sizes = [(2, 1), (10, 9), (1000, 600), (1000, 999), (5000, 4999)]
    # where the sort keys' index field b = (k - 1).bit_length() grows
    sizes += [(2**11, 2**10), (2**11 + 1, 2**10 + 1), (2**12, 2**12 - 1)]
    for n, k in sizes:
        u = u_of(n, k)
        monkeypatch.setattr(Rng, "uniform", lambda self, count: u[:count])
        got = Rng(0).sample_without_replacement(n, k)
        assert np.array_equal(got, _dense_draw(Rng(0), n, k))
        if expected is not None:
            assert np.array_equal(got, expected(n, k))


@pytest.mark.parametrize("m", [0, 1, 2, 5, 10, 12])
def test_sample_without_replacement_at_powers_of_two(m):
    # the sort keys take b = (k - 1).bit_length() low bits, which grows by
    # one from k = 2**m to 2**m + 1; n = 2**m is the largest n for its width
    p = 2**m
    for n in (p, p + 1, p + 2, 2 * p):
        for k in (p - 1, p, p + 1):
            if 0 <= k <= n:
                _assert_same_draw(n, k, 1000 * m + n + k)


def test_sample_without_replacement_key_bound(monkeypatch):
    # the keys (j << b) | i need (n - 1).bit_length() + b <= 63 bits; past
    # that the draw is refused before any uniform or index array is made
    def no_draws(self, count):
        raise AssertionError(f"asked for {count} uniforms")

    with monkeypatch.context() as mp:
        mp.setattr(Rng, "uniform", no_draws)
        with pytest.raises(ParameterError, match="must be <= 63"):
            Rng(0).sample_without_replacement(2**40, 2**24 + 1)
        with pytest.raises(ParameterError, match="must be <= 63"):
            Rng(0).sample_without_replacement(2**62, 3)
    # 62 + 1 bits still fit
    s = Rng(0).sample_without_replacement(2**62, 2)
    assert s.dtype == np.int64 and len(set(s.tolist())) == 2
    assert 0 <= s.min() and s.max() < 2**62


def test_sample_without_replacement_large_draws_match():
    # the sizes the self-checks and criterion 5 draw
    for n, k, seed in [(400_000, 200_000, 1), (1_000_000, 1000, 2), (20_000, 10_000, 3)]:
        _assert_same_draw(n, k, seed)


def test_sample_without_replacement_is_roughly_uniform():
    # every index should be selected in about k/n of the trials
    hits = np.zeros(20)
    trials = 3000
    root = Rng(42)
    for t in range(trials):
        hits[root.child(t).sample_without_replacement(20, 5)] += 1
    p = 5 / 20
    se = math.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(hits - trials * p) < 5 * se)


# ---------------------------------------------------------------------------
# bernoulli / integers


def test_bernoulli_rate():
    draws = Rng(21).bernoulli(0.3, 100_000)
    se = math.sqrt(0.3 * 0.7 / draws.size)
    assert abs(draws.mean() - 0.3) < 4 * se
    assert not Rng(21).bernoulli(0.0, 100).any()
    assert Rng(21).bernoulli(1.0, 100).all()
    with pytest.raises(ParameterError):
        Rng(21).bernoulli(1.5, 10)


def test_integers_bounds_and_coverage():
    draws = Rng(13).integers(10_000, 7)
    assert draws.min() >= 0
    assert draws.max() <= 6
    assert set(draws.tolist()) == set(range(7))
