"""Exact CSV text of float64 arrays, built with numpy.

:func:`g17_fields` gives each value the bytes of ``'%.17g' % x``.  Every x
with 1e-4 <= |x| < 1e16 takes the vectorised path: its exponent e lies in
[-4, 15], so ``%.17g`` prints it in fixed notation, and q = 16 - e lies in
[1, 20], so 10**q is an exact double.  The error-free product of |x| and
10**q (Veltkamp split and Dekker product, as numpy has no fma) gives
p + lo = |x| * 10**q exactly.  From 2**53 on every double is an even
integer, so p + rint(lo) is |x| * 10**q rounded half to even: the 17
significant digits that ``%.17g`` prints.  An exponent taken from
``log10`` that is one decade off shows as a digit count other than 17 and
is corrected.  Every other value (zeros, nan, infinities, subnormals,
magnitudes out of that range) is formatted by Python itself.

:func:`csv_blocks` joins such fields into rows, in blocks of whole
instants, as NUL-padded byte matrices whose NULs are then dropped.

Only the writers of ``trajectory.csv`` and ``metrics.csv``, and ``run()``
when it has an output directory, import this module, so that ``import
uniswarm`` and runs that write nothing never load it.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

FIELD = 24  # the longest '%.17g' text, as in '-2.2250738585072014e-308'
# values per block: the row matrix and the temporaries of one block stay
# within a few hundred kB, and per-block overhead stays small next to the
# formatting (chosen by timing trajectory.csv at m = 23 and m = 500)
_BLOCK_VALUES = 4096

_POW10 = 10.0 ** np.arange(22)  # exact doubles up to 10**22
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _masks(spans, fill: int = 0xFF) -> np.ndarray:
    """(3, len(spans)): word j of the FIELD-byte strings that hold ``fill``
    at bytes lo <= i < hi and NUL elsewhere, one per (lo, hi) in ``spans``."""
    strings = [bytes(fill if lo <= i < hi else 0 for i in range(FIELD)) for lo, hi in spans]
    return np.frombuffer(b"".join(strings), dtype="<u8").reshape(-1, 3).T.copy()


# A value's text is built in FIELD bytes held as three little-endian words.
# Bytes 3..23 hold "0000" and the 17 digits (the digit string), so the
# decimal point falls after byte e + 7 for every exponent e in [-4, 15].
# The digits up to the point move down by one byte (to bytes 2..e + 6),
# the point goes to byte e + 7, and the zeros that %.17g drops are masked
# out: the four leading ones (all but the last when e < 0) and the
# trailing zeros of the fraction.  Byte 0 holds the sign.
_EXPONENTS = range(-4, 16)
# _INTEGER[:, e + 4]: the integer part, moved down
_INTEGER = _masks([(min(e, 0) + 6, e + 7) for e in _EXPONENTS])
# _FRACTION and _POINT[:, (e + 4) * 17 + t], for t trailing zeros of the
# 17 digits: the fraction and its point, both empty when t drops them all
_FRACTION = _masks([(e + 8, 24 - t) for e in _EXPONENTS for t in range(17)])
_POINT = _masks([(e + 7, e + 8 if 24 - t > e + 8 else 0) for e in _EXPONENTS for t in range(17)],
                fill=46)
_ZERO = 48 << 24  # byte 3, the first of the four zeros
# _DIGITS[g]: the ASCII text of 0 <= g < 10**4, zero-padded to four digits,
# as one word; _TRAILING[g]: its trailing zeros, 4 for g = 0.  Both are
# built with the operations the formatting itself uses, which keeps the
# memory the import touches small.
_DIGITS = np.zeros(10_000, dtype=np.uint64)
_TRAILING = np.zeros(10_000, dtype=np.int8)
for _k in range(4):
    _DIGITS |= (np.arange(10_000) // 10 ** (3 - _k) % 10 + 48).astype(np.uint64) << 8 * _k
    _TRAILING[::10 ** (_k + 1)] += 1
del _k


def _digits17(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a * 10**q rounded half to even, as int64; exact where the result
    is at least 2**53."""
    p = a * _POW10[q]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[q], _POW10_LO[q]
    lo = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_words(a: np.ndarray) -> np.ndarray:
    """(n, 3) little-endian words: the '%.17g' text of each
    1e-4 <= a < 1e16, NUL-padded, with byte 0 left for the sign."""
    q = 16 - np.floor(np.log10(a)).astype(np.int64)
    n17 = _digits17(a, q)
    off = np.flatnonzero((n17 < 10 ** 16) | (n17 >= 10 ** 17))
    if len(off):
        q[off] += np.where(n17[off] < 10 ** 16, 1, -1)
        n17[off] = _digits17(a[off], q[off])
    # the 17 digits: a lead digit and four groups of four
    lead = n17 // 10 ** 16
    rest = n17 - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    g1, g3 = high // 10 ** 4, low // 10 ** 4
    groups = (g1, high - g1 * 10 ** 4, g3, low - g3 * 10 ** 4)
    # the digit string as three words, and moved down by one byte
    digits = (_DIGITS[lead] << 32 | _ZERO,
              _DIGITS[groups[0]] | _DIGITS[groups[1]] << 32,
              _DIGITS[groups[2]] | _DIGITS[groups[3]] << 32)
    moved = (digits[0] >> 8 | digits[1] << 56, digits[1] >> 8 | digits[2] << 56, digits[2] >> 8)
    trailing = _TRAILING[groups[3]]
    ends_in_0000 = np.flatnonzero(groups[3] == 0)
    if len(ends_in_0000):
        count = np.zeros(len(ends_in_0000), dtype=np.int8)
        for g in groups:  # a nonzero group resets the count of those before it
            g = g[ends_in_0000]
            count = np.where(g == 0, count + 4, _TRAILING[g])
        trailing[ends_in_0000] = count
    e4 = 20 - q  # e + 4
    tail = e4 * 17 + trailing
    words = np.empty((len(a), 3), dtype=np.uint64)
    for j in range(3):
        words[:, j] = (moved[j] & _INTEGER[j].take(e4) | digits[j] & _FRACTION[j].take(tail)
                       | _POINT[j].take(tail))
    return words


def g17_fields(values: np.ndarray, out: np.ndarray) -> None:
    """Writes ``'%.17g' % x`` of each float64 in ``values`` into ``out``, of
    shape ``values.shape + (FIELD,)``, NUL-padded."""
    flat = values.reshape(-1)
    a = np.abs(flat)
    fast = (a >= 1e-4) & (a < 1e16)
    # values off the range get a stand-in here and Python's text below
    words = _fixed_words(np.where(fast, a, 1.0))
    words[:, 0] |= (flat < 0) * np.uint64(45)  # '-'
    out[...] = words.astype("<u8", copy=False).view(np.uint8).reshape(out.shape)
    if not fast.all():
        slow = ~fast.reshape(values.shape)
        text = np.array([b"%.17g" % x for x in values[slow].tolist()], dtype=f"S{FIELD}")
        out[slow] = text.view(np.uint8).reshape(-1, FIELD)


def text_fields(strings: list[str]) -> np.ndarray:
    """(len(strings), w) uint8: the ASCII strings, NUL-padded to the longest."""
    width = max(map(len, strings), default=0)
    text = np.array(strings, dtype=f"S{max(width, 1)}").view(np.uint8)
    return text.reshape(len(strings), max(width, 1))[:, :width]


def csv_blocks(instant_columns: list[np.ndarray], agents: np.ndarray,
               agent_columns: list[np.ndarray]) -> Iterator[bytes]:
    """CSV rows, one per instant k and agent i, in blocks of whole instants.

    Row (k, i) holds the values of ``instant_columns`` (arrays of shape
    (K,) or (K, c)) at k, then the text ``agents[i]``, then the values of
    ``agent_columns`` (arrays of shape (K, m) or (K, m, c)) at (k, i).  The
    values are written as ``'%.17g'``, each followed by ',' except the
    row's last, which ends the line.  ``agents`` is (m, w) NUL-padded ASCII
    from :func:`text_fields`.
    """
    instants, m = agent_columns[0].shape[:2]
    heads = sum(int(np.prod(c.shape[1:])) for c in instant_columns)
    cells = sum(int(np.prod(c.shape[2:])) for c in agent_columns)
    per_block = max(1, _BLOCK_VALUES // (m * cells))
    rows = np.empty((min(per_block, instants), m, (heads + cells) * (FIELD + 1) + agents.shape[1]),
                    dtype=np.uint8)
    start = heads * (FIELD + 1)
    head = rows[:, :, :start].reshape(rows.shape[:2] + (heads, FIELD + 1))
    rows[:, :, start:start + agents.shape[1]] = agents
    body = rows[:, :, start + agents.shape[1]:].reshape(rows.shape[:2] + (cells, FIELD + 1))
    head[..., FIELD] = body[..., FIELD] = 44  # ','
    body[..., -1, FIELD] = 10  # '\n'
    for k in range(0, instants, per_block):
        b = min(per_block, instants - k)
        if heads:
            g17_fields(np.column_stack([c[k:k + b] for c in instant_columns]),
                       head[:b, 0, :, :FIELD])
            head[:b, 1:] = head[:b, :1]
        g17_fields(np.concatenate([c[k:k + b].reshape(b, m, -1) for c in agent_columns], axis=2),
                   body[:b, ..., :FIELD])
        yield rows[:b].tobytes().translate(None, b"\0")
