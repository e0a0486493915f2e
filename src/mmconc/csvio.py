"""Deterministic CSV / JSON emission shared by samplers and the CLI.

All floats are written with 17 significant digits, '.' decimal point and
LF line endings so that re-runs produce byte-identical files.

Byte contract: every float cell is exactly `"%.17g" % v`.  Experiment
rows go through `format_value`, one call per cell.  Sample blocks go
through `format_block`, which renders a whole float64 array in numpy
passes and gives the same bytes.  Its fast range is 1e-4 <= |v| < 1e15,
where `%.17g` is the fixed layout: the 17 correctly rounded digits D
come from the exact product |v| * 10^(16 - X) (X the decimal exponent),
carried as the sum p + e of two doubles (Dekker's two-product with
Veltkamp splitting, Numer. Math. 18, 1971; 10^s is exact for s <= 22),
and D = p + rint(e).  That rounds half to even, as `%.17g` does, because
p >= 1e16 is an even integer.  Zeros, subnormals, non-finite values and
everything outside the fast range go through `"%.17g" % v` per value.
"""

from __future__ import annotations

import functools
import hashlib
import json
from itertools import chain

import numpy as np


def format_value(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


# Fast range of format_block.
_LO, _HI = 1e-4, 1e15
_VELTKAMP = 134217729.0  # 2^27 + 1


@functools.cache
def _tables():
    """Lookup tables of format_block, built on first use."""
    # Powers of ten 10^-4 .. 10^23 as doubles, exact from 10^0 to 10^22;
    # 10^-1 .. 10^-4 round up, so `|v| >= 10^k` is exact for doubles.
    p10 = np.array([float("1e%d" % k) for k in range(-4, 24)])
    # Per biased binary exponent b (|v| in [2^j, 2^(j+1)), j = b - 1023):
    # the decimal exponent k of 2^j and the step 10^(k+1) at which |v|
    # has exponent k + 1.  Only the fast range is filled in.
    t = {"cand": np.zeros(2048, np.int64), "step": np.full(2048, np.inf)}
    for b in range(1009, 1073):
        j = b - 1023
        k = len(str(2**j)) - 1 if j >= 0 else -len(str(2**-j))
        t["cand"][b], t["step"][b] = k, p10[k + 5]
    # Tables indexed by X + 4 for the decimal exponent X of |v|.
    xs = np.arange(-4, 16)
    t["scale"] = p10[20 - xs]  # 10^(16 - X)
    c = _VELTKAMP * t["scale"]
    t["scale_hi"] = c - (c - t["scale"])
    t["scale_lo"] = t["scale"] - t["scale_hi"]
    pow10 = np.array([10**k for k in range(18)], np.int64)
    # D = I * 10^(16-X) + F with I the integer part (0 for X < 0) ...
    t["int_unit"] = pow10[np.minimum(16 - xs, 17)]
    # ... and F split into the first and the last ten of 20 left-aligned
    # fraction digits.
    t["frac_div"] = pow10[np.maximum(6 - xs, 0)]
    t["hi_mul"] = pow10[np.maximum(xs - 6, 0)]
    t["lo_mul"] = np.where(xs < 6, pow10[np.clip(xs + 4, 0, 17)], 0)

    g = np.arange(10000)
    digits = np.stack([g // 1000 % 10, g // 100 % 10, g // 10 % 10, g % 10], 1)
    digits = (digits + 48).astype(np.uint8)
    zero = digits == 48
    t["trailing"] = np.logical_and.accumulate(zero[:, ::-1], axis=1).sum(1)

    def words(a):
        return np.ascontiguousarray(a, np.uint8).view(np.uint32).ravel()

    def signed(body, lead):
        # Leading zeros blanked; the sign goes just before the first digit
        # (a 4-digit word has no room: its sign goes in the word above).
        pos = np.where(lead, 0, body).astype(np.uint8)
        neg = pos.copy()
        first = lead.sum(1)
        room = np.flatnonzero(first >= 1)
        neg[room, first[room] - 1] = 45
        return pos, neg

    # Fraction words: 4 digits, group g at index g.
    t["digits"] = words(digits)
    # keep[q, f]: the bytes of fraction word q kept when f digits are kept.
    keep = np.arange(20) < np.arange(21)[:, None]
    t["keep"] = words(np.where(keep, 255, 0)).reshape(21, 5).T.copy()
    # Integer words above the units word: 4 digits each, keyed by
    # state * 10000 + group with state 0 full, 1 leading, 2 leading and
    # negative (a leading word of group 0 is blank or the sign alone).
    t["int_hi"] = words(np.concatenate([digits, *signed(digits, np.logical_and.accumulate(zero, axis=1))]))
    # Units word: 3 digits and the point ('\0' when no fraction is kept),
    # keyed by (no_fraction * 3 + state) * 1000 + group.
    d3 = digits[:1000, 1:]
    lead3 = np.logical_and.accumulate(d3 == 48, axis=1)
    lead3[:, -1] = False  # the units digit always shows
    parts = []
    for point in (46, 0):
        for body in (d3, *signed(d3, lead3)):
            parts.append(np.concatenate([body, np.full((1000, 1), point, np.uint8)], 1))
    t["int_units"] = words(np.concatenate(parts))
    return t


def format_block(x):
    """Render a float64 array as `"%.17g" % v` for every value.

    Returns a uint8 array of shape x.shape + (width,), width a multiple of
    4: removing the NUL bytes from field i leaves exactly
    `("%.17g" % x.flat[i]).encode()`.  The NULs are padding on either
    side of the rendering, and the last 4 bytes of every field are always
    NUL, so a caller may put a separator there.
    """
    t = _tables()
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    x = x.ravel()
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= _LO) & (a < _HI)))
    a[slow] = 1.0
    # Decimal exponent X with 10^X <= a < 10^(X+1), exact.
    b = a.view(np.int64) >> 52
    X = t["cand"].take(b)
    X += a >= t["step"].take(b)
    xi = X + 4
    # D = round-half-even(a * 10^(16-X)), 10^16 <= D <= 10^17.
    a_hi = _VELTKAMP * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    s_hi = t["scale_hi"].take(xi)
    p = a * t["scale"].take(xi)
    e = a_hi * s_hi
    e -= p
    s_lo = t["scale_lo"].take(xi)
    a_hi *= s_lo
    e += a_hi
    s_hi *= a_lo
    e += s_hi
    a_lo *= s_lo
    e += a_lo
    D = p.astype(np.int64)
    D += np.rint(e, out=e).astype(np.int64)
    # D < 10^17, and the integer part is floor(a): rounding to 17 digits
    # never carries into a new decade or into the integer part.  A carry
    # needs a double within half a unit of the 17th digit, 5e-17 * 10^X,
    # below an integer or a power of ten; but those are doubles here (or,
    # for 10^-1 .. 10^-3, round up), and the next double below one of them
    # is at least 2^-54 * 10^X away.
    I = a.astype(np.int64)
    F = D - I * t["int_unit"].take(xi)
    div = t["frac_div"].take(xi)
    hi = F // div
    lo = (F - hi * div) * t["lo_mul"].take(xi)
    hi *= t["hi_mul"].take(xi)
    # Fraction digits kept: 16 - X less the trailing zeros of D.
    low = D - D // 10000 * 10000
    tz = t["trailing"].take(low)
    z = np.flatnonzero(low == 0)
    high = D[z]
    while z.size:  # at most 4 groups: D >= 10^16
        high //= 10000
        low = high % 10000
        tz[z] += t["trailing"].take(low)
        z, high = z[low == 0], high[low == 0]
    kept = 16 - X
    kept -= tz
    np.maximum(kept, 0, out=kept)

    L = np.maximum(X, 0) + 1  # integer digits
    w = (int(L.max(initial=1)) + 5) // 4  # integer words: sign, digits and point
    out = np.empty((x.size, w + 6), np.uint32)
    out[:, -1] = 0
    # Fraction: 20 digits left-aligned in five words, hi and lo ten each.
    g = hi // 1000000
    out[:, w] = t["digits"].take(g) & t["keep"][0].take(kept)
    hi -= g * 1000000
    g = hi // 100
    out[:, w + 1] = t["digits"].take(g) & t["keep"][1].take(kept)
    hi -= g * 100
    g = lo // 100000000
    lo -= g * 100000000
    g += hi * 100
    out[:, w + 2] = t["digits"].take(g) & t["keep"][2].take(kept)
    g = lo // 10000
    out[:, w + 3] = t["digits"].take(g) & t["keep"][3].take(kept)
    lo -= g * 10000
    out[:, w + 4] = t["digits"].take(lo) & t["keep"][4].take(kept)
    # Integer words, right to left: the units word holds 3 digits.
    neg = np.signbit(x)
    key = (kept == 0) * 3
    key += (L < 3) * (1 + neg)
    key *= 1000
    key += I - I // 1000 * 1000
    out[:, w - 1] = t["int_units"].take(key)
    for j in range(1, w):
        lead = (L < 4 * j + 3) * (1 + (neg & (L >= 4 * j - 1)))
        out[:, w - 1 - j] = t["int_hi"].take(lead * 10000 + I // 10 ** (4 * j - 1) % 10000)

    width = 4 * (w + 6)
    out = out.view(np.uint8)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype="S%d" % width).view(np.uint8).reshape(-1, width)
    return out.reshape(shape + (width,))


def render_rows(lead, x, seps):
    """Lines of len(lead) CSV rows of float cells, padded with NUL bytes.

    Line r is lead[r], then for each cell j `"%.17g" % x[r, j]` followed
    by seps[j].  lead holds bytes, or is None for no lead (the cells
    continue a line); seps holds bytes of at most 4 bytes each (the last
    one ends the line).  Returns a uint8 array (k, width): removing the
    NUL bytes from row r leaves exactly line r.  The NULs stay for
    write_csv to strip.
    """
    k, c = x.shape
    f = format_block(x).view(np.uint32).reshape(k, c, -1)
    f[:, :, -1] = np.array(seps, dtype="S4").view(np.uint32)
    if lead is None:
        return f.reshape(k, -1).view(np.uint8)
    width = -(-max(map(len, lead)) // 4) * 4
    prefix = np.array(lead, dtype="S%d" % width).view(np.uint32).reshape(k, -1)
    return np.concatenate([prefix, f.reshape(k, -1)], axis=1).view(np.uint8)


def write_csv(path, header, rows):
    """Write rows under a header; returns the body digest.

    header is a sequence of cells, or None when the rows begin with the
    header line.  A row is a sequence of cells, or a uint8 array of lines
    padded with NUL bytes (as from `render_rows`); consecutive arrays may
    split a line between them.  Each row is encoded, or stripped of its
    NULs with numpy, and fed to both the file and the hash in turn, so
    the body is never held in memory as a whole.
    """
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for row in rows if header is None else chain([header], rows):
            if isinstance(row, np.ndarray):
                data = row[row != 0]
            else:
                data = (",".join(map(format_value, row)) + "\n").encode()
            fh.write(data)
            h.update(data)
    return h.hexdigest()


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
