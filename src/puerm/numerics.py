"""Dense float64 matrix helpers and a reproducible random number generator.

Matrices are plain 2-D ``numpy.ndarray`` objects in C (row-major) order with
dtype float64; the helpers here validate that convention and keep results
finite. ``check_field_types`` type-checks the scalar fields of a config
dataclass against their annotations; ``_check_pi`` is the one check of a
class prior, ``_check_sd`` of a standard deviation, ``_check_finite`` of
a mean and ``_check_count`` of a draw count. ``Rng`` wraps numpy's PCG64
bit generator so that every random stream in the package is reproducible
byte-for-byte across platforms:

* uniforms come straight from PCG64's 64-bit output via the standard
  ``(word >> 11) * 2**-53`` conversion (numpy's ``Generator.random``),
* normals are produced by the Box-Muller transform applied to those
  uniforms (never by numpy's ziggurat, whose stream is not pinned),
* permutations are the stable argsort of a block of uniforms. Distinct
  uniforms have one sorted order, which numpy's faster unstable argsort
  finds too, so the sort is redone stably only on a tie (two equal
  neighbours in sorted order),
* subset draws return the same indices as the first k steps of a
  Fisher-Yates shuffle, computed with vectorised numpy work and no O(n)
  array: one sort of packed (swap target, step) keys, then a walk along
  the chains of displaced values that only the steps with a repeated
  swap target take.

The draws work in place on arrays they allocate and only read the array
``uniform`` returns. Child generators are derived with
``numpy.random.SeedSequence`` spawn keys, which makes sibling streams
independent by construction.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import ParameterError, ShapeError

_TIE_BLOCK = 1 << 13  # sorted uniforms the permutation's tie test reads at a time


def as_matrix(data, cols: int | None = None) -> np.ndarray:
    """Coerce ``data`` to a C-ordered float64 2-D array and validate it.

    Raises ShapeError if the value is not 2-dimensional or does not have
    the expected number of ``cols``, and ParameterError if any entry is
    non-finite.
    """
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if cols is not None and a.shape[1] != cols:
        raise ShapeError(f"expected {cols} columns, got {a.shape[1]}")
    if a.size and not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")
    return a


def is_real(v) -> bool:
    """True for an int or a float, but not for a bool (JSON ``true``)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_pi(pi: float) -> float:
    """``pi`` as a float; ParameterError unless 0 < pi < 1, which NaN is not."""
    if not 0.0 < pi < 1.0:
        raise ParameterError(f"pi must be in (0, 1), got {pi}")
    return float(pi)


def _check_finite(name: str, v: float) -> float:
    """``v`` as a float; ParameterError naming ``name`` for NaN or infinity."""
    if not -math.inf < v < math.inf:
        raise ParameterError(f"{name} must be finite, got {v}")
    return float(v)


def _check_sd(sd: float) -> float:
    """``sd`` as a float; ParameterError unless 0 < sd < inf, which NaN is not."""
    if not sd > 0:
        raise ParameterError(f"sd must be > 0, got {sd}")
    return _check_finite("sd", sd)


def _check_count(name: str, v, low: int = 0) -> int:
    """``v`` as an int; ParameterError unless an int or numpy integer >= low."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {v!r}")
    return int(v)


_FIELD_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),  # not a bool, not 50.0
    # not NaN or infinity; unlike math.isfinite, no int is too large for it
    "float": ("a finite number", lambda v: is_real(v) and -math.inf < v < math.inf),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(obj) -> None:
    """Raise ParameterError for a scalar field of dataclass ``obj`` that
    holds a value of the wrong type.

    Fields annotated ``int``, ``float`` or ``str``, optionally ``| None``,
    are checked; others are left to their owner. An ``int`` field takes an
    int and nothing else, a ``float`` field an int or a finite float but no
    bool, NaN or infinity.
    The annotations are read as the strings that ``from __future__ import
    annotations`` leaves in the owner's module.
    """
    for f in fields(obj):
        kind, _, optional = f.type.partition(" | ")
        v = getattr(obj, f.name)
        if kind not in _FIELD_TYPES or (v is None and optional == "None"):
            continue
        what, ok = _FIELD_TYPES[kind]
        if not ok(v):
            raise ParameterError(f"{f.name} must be {what}, got {v!r}")


class Rng:
    """Deterministic random stream seeded by a 64-bit integer.

    Two instances built with the same ``(seed, spawn_key)`` produce
    identical streams on any platform. ``child(i)`` derives the i-th
    independent substream without consuming any draws from the parent.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = _check_count("seed", seed)
        if self.seed >= 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.spawn_key = _spawn_key
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"

    def child(self, i: int) -> "Rng":
        """Independent substream number ``i`` of this generator."""
        return Rng(self.seed, self.spawn_key + (_check_count("i", i),))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return self._gen.random(_check_count("n", n))

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """``n`` draws from N(mean, sd^2) via the Box-Muller transform.

        Consumes 2 * ceil(n / 2) uniforms: pairs (u1, u2) map to
        r = sqrt(-2 ln(1 - u1)) and the pair (r cos(2 pi u2), r sin(2 pi u2)).
        """
        _check_sd(sd)
        _check_finite("mean", mean)
        n = _check_count("n", n)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        m = (n + 1) // 2
        r = np.sqrt(-2.0 * np.log1p(-self.uniform(m)))  # 1 - u1 in (0, 1], no log(0)
        theta = 2.0 * np.pi * self.uniform(m)
        z = np.empty(2 * m, dtype=np.float64)
        np.cos(theta, out=z[0::2])
        z[0::2] *= r
        np.sin(theta, out=theta)
        np.multiply(theta, r, out=z[1::2])
        z = z[:n]
        z *= sd
        z += mean
        return z

    def bernoulli(self, p: float, n: int) -> np.ndarray:
        """Boolean array of ``n`` independent coin flips with P(True) = p."""
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {p}")
        return self.uniform(n) < p

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n), as the stable argsort of n uniforms.

        Distinct uniforms have one sorted order, which any sort finds, so
        the stable sort runs only when a tie needs it. The tie test reads
        the sorted uniforms ``_TIE_BLOCK`` at a time, each block starting
        at the last entry of the one before.
        """
        u = self.uniform(n)
        order = u.argsort()
        for lo in range(1, n, _TIE_BLOCK):
            s = u[order[lo - 1 : lo + _TIE_BLOCK]]
            if (s[1:] == s[:-1]).any():
                del order, s  # before the stable sort allocates its own
                return u.argsort(kind="stable")
        return order

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices drawn uniformly from range(n).

        Uses the full argsort permutation when k == n. Otherwise returns
        the same indices as the first k steps of a Fisher-Yates shuffle of
        range(n), in the same order, from exactly k uniforms: step i swaps
        positions i and j[i] = i + floor(u[i] (n - i)) and keeps the value
        that lands on position i. That value is j[i] itself, or the value
        that the last earlier step with the same j displaced; a displaced
        value follows the same rule one step back. One sort of the unique
        keys (j[i] << b) | i, with b = (k - 1).bit_length(), puts the steps
        in stable order of j and so finds those earlier steps. Only the steps
        whose j an earlier step already hit follow their chain of displaced
        values, all together, one link a round. The cost is the O(k log k)
        sort plus one round, of at most O(k) work, per link of the longest
        walked chain, in O(k) memory. PCG64 uniforms give chains of a few
        links; a crafted stream can force about k (steps i < k - 1 aiming at
        i + 1, and the last step at k - 1 again). The keys must fit in 63
        bits, (n - 1).bit_length() + b <= 63, which holds for every n below
        2**31; larger draws raise ParameterError.
        """
        if _check_count("k", k) > _check_count("n", n):
            raise ParameterError(f"need k <= n, got k={k}, n={n}")
        if k == n:
            return self.permutation(n)
        b = int(k - 1).bit_length()
        if int(n - 1).bit_length() + b > 63:
            raise ParameterError(
                f"n={n}, k={k} is too large: (n - 1).bit_length() + "
                f"(k - 1).bit_length() must be <= 63"
            )
        # float64 times an int below 2**53 is exact, and astype truncates
        # like int(), so j matches the scalar loop bit for bit. A float64
        # arange multiplies faster than an int one, which numpy casts.
        j = (np.arange(n, n - k, -1, dtype=np.float64) * self.uniform(k)).astype(np.int64)
        # the step numbers i, in a buffer that later takes the sorted order;
        # int32 holds every index, as k <= 2**31 by the guard above
        order = np.arange(k, dtype=np.int32)
        j += order
        np.minimum(j, n - 1, out=j)  # u*(n-i) may round up to n-i
        # the keys (j[i] << b) | i are unique, so an unstable sort of them
        # gives the stable order of j; the low b bits decode to that order
        sorted_j = j << b
        sorted_j |= order
        sorted_j.sort()
        np.bitwise_and(sorted_j, (1 << b) - 1, out=order, casting="unsafe")
        sorted_j >>= b
        same = sorted_j[1:] == sorted_j[:-1]
        # step order[d + 1] aims where the earlier step order[d] aimed; every
        # other step keeps its own j
        dup = np.flatnonzero(same)
        # the last step of each group of equal j. Only targets below k feed
        # src, and they sort first: the first m keys. Key m - 1 always ends
        # its group, as sorted_j[m] >= k when m < k.
        m = int(sorted_j.searchsorted(k))
        is_end = np.ones(m, dtype=bool)
        np.logical_not(same[:m], out=is_end[: k - 1])
        del same
        ends = np.flatnonzero(is_end)
        del is_end
        # src[t]: the last step aiming at position t, whose displaced value
        # t holds before step t; t itself when no step aimed at it. When
        # that step is t itself no later step reads w[t], since j[i] >= i.
        targets = sorted_j[ends]
        del sorted_j  # before src is built: the largest array but j
        src = np.arange(k, dtype=np.int32)
        src[targets] = order[ends]
        del targets, ends
        steps, root = order[dup + 1], order[dup]
        del order, dup
        # steps[d] takes the value that step root[d] displaced: the value
        # position root[d] held before that step, which is the end of the
        # chain root[d] -> src[root[d]] -> ... (src[t] < t until src[t] == t).
        # Each round moves only the walkers not yet at their chain's end; in
        # the first, every walker is live and stands at its own root.
        live, at = np.arange(root.size), root
        while live.size:
            nxt = src[at]
            moved = nxt != at
            live = live[moved]
            root[live] = nxt[moved]
            at = root[live]
        j[steps] = root
        return j

    def integers(self, n: int, high: int) -> np.ndarray:
        """``n`` integers uniform on [0, high), via floor(u * high), for an int high >= 1."""
        _check_count("high", high, low=1)
        v = np.floor(self.uniform(n) * high).astype(np.int64)
        return np.minimum(v, high - 1)
