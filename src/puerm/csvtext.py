"""CSV text of a float matrix and label columns, built with numpy
arithmetic: the bytes of one printf-style template per row, with no
Python call per cell or row. ``datasets.save_csv`` imports it on its
first call.

A value that ``%.17g`` writes in fixed notation, a decimal exponent of
-4 to 16, gets its 17 significant digits from an exact product with a
power of ten, rounded half to even as ``%.17g`` rounds (``_decimal``),
and its text from digit tables placed by exponent class
(``_fixed_cells``). 0, -0.0, a value written with an exponent, and
every value under another float format get their ``%`` text one at a
time, so the bytes are the template's either way.
"""

from __future__ import annotations

import functools

import numpy as np

# Bytes of a feature cell in csv_rows' matrix: a separator, a sign and
# "0.000" with 17 digits, the longest fixed-notation %.17g text.
_CELL = 24


@functools.cache
def _powers():
    """(10^(16 - e) at index e for e = -6..16, the negative e counted from
    the end, each an exact double; the high and low Veltkamp halves of each)."""
    exact = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10^0 .. 10^22
    powers = exact[16 - np.r_[0:17, -6:0]]
    t = powers * 134217729.0  # 2^27 + 1
    high = t - (t - powers)
    return powers, high, powers - high


def _scaled(a, e):
    """round-half-even(a * 10^(16 - e)) as int64, for a in [1e-5, 1e17) and
    e in -6..16; exact wherever the product is at least 2^53, as every one
    in [10^16, 10^17) is.

    Dekker's product splits a and the power into 26-bit halves, so that
    a * 10^(16 - e) = p + err exactly, with p the rounded product. From
    2^53 on p is an even integer, so p + rint(err) rounds the exact product
    half to even, as ``%.17g`` does."""
    powers, high, low = _powers()
    p, bh, bl = powers[e], high[e], low[e]
    ah = a * 134217729.0
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    p *= a
    err = ah * bh
    err -= p
    ah *= bl
    err += ah
    bh *= al
    err += bh
    al *= bl
    err += al
    # the integers go into buffers that are no longer needed
    d, rounded = ah.view(np.int64), al.view(np.int64)
    np.copyto(d, p, casting="unsafe")
    np.copyto(rounded, np.rint(err, out=err), casting="unsafe")
    d += rounded
    return d


def _decimal(v):
    """(d, e, fast) of a float64 vector ``v``: where ``fast``, ``%.17g``
    writes the value in fixed notation, as the 17 digits of the int64 d in
    [10^16, 10^17) with decimal exponent e in -4..16. ``fast`` is False at
    0, at a value ``%.17g`` writes with an exponent and at any value whose
    digits one correction of e leaves out of that range."""
    c = np.abs(v)
    # Outside [1e-5, 1e17) %.17g writes an exponent. fmax and fmin keep 0
    # and a NaN out of log10; np.nextafter(1e17, 0) is the largest double
    # below 1e17.
    fast = c >= 1e-5
    fast &= c < 1e17
    np.fmax(c, 1e-5, out=c)
    np.fmin(c, 99999999999999984.0, out=c)
    e = np.log10(c)
    np.floor(e, out=e)
    np.minimum(e, 16, out=e)
    e = e.astype(np.int64)
    d = _scaled(c, e)
    # log10 can round across a power of ten, and the digits can round up
    # to 10^17: move e by one there.
    off = (d >= 10**17).astype(np.int64)
    off -= d < 10**16
    redo = np.flatnonzero(off)
    if len(redo):
        er = e[redo] + off[redo]
        dr = _scaled(c[redo], np.clip(er, -6, 16))
        fast[redo] &= (er <= 16) & (dr >= 10**16) & (dr < 10**17)
        e[redo], d[redo] = er, dr
    fast &= e >= -4
    return d, e, fast


@functools.cache
def _text_tables():
    """The lookup tables of ``_fixed_cells``, built on first use:

    - the 4 ASCII digits of each k < 10^4 as one uint32, then the same with
      the zeros after the last nonzero digit blanked, so that k = 0 is 0;
    - per exponent e = -4..16, a byte mask of a cell's integer digits and
      one of its fraction digits;
    - per (e, has a fraction digit, negative), a cell's other bytes: the
      separator, the sign and the ``.``, or for e < 0 ``0.`` and -e - 1 zeros."""
    k = np.arange(10_000, dtype=np.int16)[:, None]
    scale = np.array([1000, 100, 10, 1], np.int16)
    digits = (k // scale % 10).astype(np.uint8)
    digits += ord("0")
    groups = np.concatenate([digits, digits * (k % (10 * scale) != 0)])
    e = np.arange(-4, 17)[:, None]
    pos = np.arange(_CELL)
    gap = 2 + np.maximum(e + 1, 0)  # the byte after the integer digits
    integer = ((pos >= 2) & (pos < gap)) * np.uint8(255)
    fraction = (pos >= gap + 5) * np.uint8(255)
    extra = np.zeros((21, 2, 2, _CELL), np.uint8)
    extra[..., 0] = ord(",")
    extra[:, :, 1, 1] = ord("-")
    extra[:, 1] += ((pos == gap) & (e >= 0))[:, None] * np.uint8(ord("."))
    lead = (pos >= 2) & (pos < 3 - e) & (e < 0)
    extra += (lead * np.where(pos == 3, ord("."), ord("0"))).astype(np.uint8)[:, None, None]
    return (groups.view(np.uint32).ravel(), integer.view(np.uint64), fraction.view(np.uint64),
            extra.reshape(84, _CELL).view(np.uint64))


def _fixed_cells(v):
    """(cells, fast) of a float64 vector ``v``: where ``fast``, the row of
    the n x ``_CELL`` uint8 ``cells`` is the separator and the ``%.17g``
    text of the value, 0 meaning no byte; elsewhere it is undefined.

    A cell holds the separator at byte 0 and the sign at 1, then from byte
    2 the K = max(e + 1, 0) integer digits of ``_decimal``'s d, 5 bytes for
    the ``.`` or the ``0.000`` of exponent e, and the other 17 - K digits,
    those after the last nonzero fraction digit blanked."""
    groups, integer, fraction, extra = _text_tables()
    d, e, fast = _decimal(v)
    n = len(v)
    # The 17 digits from byte 3 on, as the lead digit's word and four
    # 4-digit groups, then 4 zero bytes; the zeros after the last nonzero
    # digit are blanked.
    words = np.empty((n + 1, _CELL // 4), np.uint32)
    words[:, 5] = 0
    q = d // 10_000
    g = d - q * 10_000
    blank = g == 0
    words[:n, 4] = groups[g + 10_000]
    for col in (3, 2, 1):
        d = q // 10_000
        g = q - d * 10_000
        q = d
        words[:n, col] = groups[g + 10_000 * blank]
        blank &= g == 0
    words[:n, 0] = groups[q]
    # the digits from byte 2 on, and 5 bytes further on; the fraction mask
    # drops what shifts into a cell's first word
    cells = words.view(np.uint8).reshape(-1)[1:1 + n * _CELL].view(np.uint64).reshape(n, _CELL // 8)
    right = np.empty_like(words)
    right.reshape(-1)[1:] = words.reshape(-1)[:-1]
    right = right[:n].view(np.uint64)
    cls = e + 4
    cells |= np.uint64(0x3030303030303030)  # a blanked integer digit is a 0
    cells &= np.take(integer, cls, axis=0, mode="clip")
    right &= np.take(fraction, cls, axis=0, mode="clip")
    cells |= right
    cls *= 4
    cls += 2 * ((right[:, 0] | right[:, 1] | right[:, 2]) != 0)  # a fraction digit is left
    cls += np.signbit(v)
    cells |= np.take(extra, cls, axis=0, mode="clip")
    return cells.view(np.uint8), fast


def csv_rows(x, labels, float_fmt: str) -> bytes:
    """The CSV rows of the feature matrix ``x`` and the label columns
    ``labels``: the bytes of one ``%`` per row of ``float_fmt``'s
    conversion (a ``str.format`` spec such as ``{:.17g}``) for each feature
    and ``%d`` for each label.

    The rows are built in one uint8 matrix, 0 meaning no byte, which is
    dropped at the end. A feature cell takes the ``_CELL`` bytes of
    ``_fixed_cells`` when ``float_fmt`` is ``{:.17g}`` and the value is in
    fixed notation. Any other cell gets its ``%`` text, in cells widened to
    the longest. A label cell takes 4 bytes, and each row ends in a 4-byte
    line end."""
    r, dim = x.shape
    v = x.reshape(-1)
    if float_fmt == "{:.17g}":
        fixed, fast = _fixed_cells(v)
        slow = np.flatnonzero(~fast)
    else:
        fixed, slow = None, np.arange(len(v))
    fmt = ",%" + float_fmt[2:-1]
    texts = [fmt % f for f in v[slow].tolist()]
    width = max(_CELL, (max(map(len, texts), default=0) + 3) // 4 * 4)
    out = np.empty((r, dim * width // 4 + len(labels) + 1), np.uint32)
    cells = out.view(np.uint8)[:, :dim * width].reshape(r, dim, width)
    if fixed is not None:
        cells[..., :_CELL] = fixed.reshape(r, dim, _CELL)
        cells[..., _CELL:] = 0
    if texts:
        cells[slow // dim, slow % dim] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    if labels:
        negative = (np.stack(labels, axis=1) < 0).astype(np.intp)
        out[:, dim * width // 4:-1] = np.frombuffer(b",1\0\0,-1\0", np.uint32)[negative]
    out[:, -1] = np.frombuffer(b"\n\0\0\0", np.uint32)[0]
    out.view(np.uint8)[:, 0] = 0  # no separator before a row's first cell
    return out.tobytes().translate(None, b"\0")
