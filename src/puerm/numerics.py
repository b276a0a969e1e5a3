"""Dense float64 matrix helpers and a reproducible random number generator.

Matrices are plain 2-D ``numpy.ndarray`` objects in C (row-major) order with
dtype float64; the helpers here validate that convention and keep results
finite. ``check_field_types`` type-checks the scalar fields of a config
dataclass against their annotations. ``Rng`` wraps numpy's PCG64 bit
generator so that every random stream in the package is reproducible
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
  Fisher-Yates shuffle, computed with vectorised numpy work: one sort of
  packed (swap target, step) keys and pointer doubling, no O(n) array.

Child generators are derived with ``numpy.random.SeedSequence`` spawn keys,
which makes sibling streams independent by construction.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ParameterError, ShapeError


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


_FIELD_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),  # not a bool, not 50.0
    "float": ("a number", is_real),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_field_types(obj) -> None:
    """Raise ParameterError for a scalar field of dataclass ``obj`` that
    holds a value of the wrong type.

    Fields annotated ``int``, ``float`` or ``str``, optionally ``| None``,
    are checked; others are left to their owner. An ``int`` field takes an
    int and nothing else, a ``float`` field an int or a float but no bool.
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
        if not 0 <= int(seed) < 2**64:
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"

    def child(self, i: int) -> "Rng":
        """Independent substream number ``i`` of this generator."""
        return Rng(self.seed, self.spawn_key + (int(i),))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        if n < 0:
            raise ParameterError("n must be >= 0")
        return self._gen.random(int(n))

    def normal(self, n: int, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """``n`` draws from N(mean, sd^2) via the Box-Muller transform.

        Consumes 2 * ceil(n / 2) uniforms: pairs (u1, u2) map to
        r = sqrt(-2 ln(1 - u1)) and the pair (r cos(2 pi u2), r sin(2 pi u2)).
        """
        if sd <= 0:
            raise ParameterError(f"sd must be > 0, got {sd}")
        if n < 0:
            raise ParameterError("n must be >= 0")
        n = int(n)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], no log(0)
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return mean + sd * z[:n]

    def bernoulli(self, p: float, n: int) -> np.ndarray:
        """Boolean array of ``n`` independent coin flips with P(True) = p."""
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {p}")
        return self.uniform(n) < p

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n), as the stable argsort of n uniforms.

        Distinct uniforms have one sorted order, which any sort finds, so
        the stable sort runs only when a tie needs it.
        """
        u = self.uniform(n)
        order = u.argsort()
        s = u[order]
        if (s[1:] == s[:-1]).any():
            order = u.argsort(kind="stable")
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
        in stable order of j and so finds those earlier steps; pointer
        doubling resolves the chains, in O(k log k) time and O(k) memory.
        The keys must fit in 63 bits, (n - 1).bit_length() + b <= 63, which
        holds for every n below 2**31; larger draws raise ParameterError.
        """
        if k < 0 or k > n:
            raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
        if k == n:
            return self.permutation(n)
        b = int(k - 1).bit_length()
        if int(n - 1).bit_length() + b > 63:
            raise ParameterError(
                f"n={n}, k={k} is too large: (n - 1).bit_length() + "
                f"(k - 1).bit_length() must be <= 63"
            )
        # float64 times an int below 2**53 is exact, and astype truncates
        # like int(), so j matches the scalar loop bit for bit
        j = (self.uniform(k) * np.arange(n, n - k, -1)).astype(np.int64)
        j += np.arange(k)
        np.minimum(j, n - 1, out=j)  # u*(n-i) may round up to n-i
        # the keys (j[i] << b) | i are unique, so an unstable sort of them
        # gives the stable order of j; the low b bits decode to that order
        sorted_j = j << b
        sorted_j |= np.arange(k)
        sorted_j.sort()
        order = sorted_j & ((1 << b) - 1)
        sorted_j >>= b
        same = sorted_j[1:] == sorted_j[:-1]
        # prev[i]: the last step before i with the same j, or -1
        prev = np.full(k, -1, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        # the last step of each group of equal j
        is_end = np.ones(k, dtype=bool)
        is_end[:-1] = ~same
        ends = np.flatnonzero(is_end)
        del same, is_end
        # src[t]: the last step aiming at position t, whose displaced value
        # t holds before step t; t itself when no step aimed at it. When
        # that step is t itself no later step reads w[t], since j[i] >= i.
        target, last = sorted_j[ends], order[ends]
        del sorted_j, order, ends
        aimed = target < k
        src = np.arange(k)
        src[target[aimed]] = last[aimed]
        del target, last, aimed
        # the value position t holds before step t is the start of the
        # chain t -> src[t] -> ...; pointer doubling walks to it
        while True:
            nxt = src[src]
            if np.array_equal(nxt, src):
                break
            src = nxt
        np.copyto(j, src[prev], where=prev >= 0)
        return j

    def integers(self, n: int, high: int) -> np.ndarray:
        """``n`` integers uniform on [0, high), via floor(u * high)."""
        if high <= 0:
            raise ParameterError("high must be > 0")
        v = np.floor(self.uniform(n) * high).astype(np.int64)
        return np.minimum(v, high - 1)
