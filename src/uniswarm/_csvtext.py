"""Exact CSV text of float64 arrays, built with numpy.

:func:`g17_fields` gives each value the bytes of ``'%.17g' % x``.  A
positive finite x (subnormals included) with decimal exponent e, taken
from ``log10``, has as its 17 significant digits the integer nearest to
X = x * 10**q, q = 16 - e, ties to even.  The table of powers of ten holds
10**q as 2**E * (H + L): H + L lies in [0.5, 1) and is exact to about 106
bits.  b = x * 2**E lies within a factor 2 of X, a normal double, so this
power-of-two scale is exact, also where 10**q itself would overflow.  The
error-free product of b and H (Veltkamp split and Dekker product, as numpy
has no fma) gives p + e1 = b * H exactly, and X = p + e1 + b * L + b * (the
error of H + L).  From 2**53 on every double is an even integer, so
p + rint(lo), lo = e1 + b * L, is X rounded half to even wherever lo lies
farther than its error bound (:data:`_TIE`) from a half-integer.  Where it
does not, a near-tie, the value goes to Python's ``%``.  An exponent taken
from ``log10`` that is one decade off shows as a digit count other than 17
and is corrected.

For -4 <= e <= 16 ``%.17g`` prints fixed notation, otherwise exponent
notation: a lead digit, a point and up to 16 digits, and ``e±dd`` or
``e±ddd``.  Both drop trailing zeros, and the point with them.  Zeros,
nan and infinities have constant texts.

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

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# Every positive finite double has e = floor(log10 x) in [-324, 308], and
# log10 gives an estimate in the same range, so q = 16 - e in [-292, 340].
_Q_MIN, _Q_MAX = -292, 340


def _powers_of_ten() -> tuple[list[int], list[float], list[float]]:
    """E, H and L for each q from _Q_MIN to _Q_MAX: T = 10**q / 2**E lies in
    [0.5, 1), H is T rounded to a double and L is T - H rounded to a double.
    Python's int / int is correctly rounded, so both come from exact
    integers."""
    exps, his, los = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        e = num.bit_length() - den.bit_length()  # 2**(e - 1) < num / den < 2**(e + 1)
        if (num << max(-e, 0)) >= (den << max(e, 0)):
            e += 1
        num, den = num << max(-e, 0), den << max(e, 0)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        exps.append(e)
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
    return exps, his, los


_exps, _his, _los = _powers_of_ten()
_POW10_EXP = np.array(_exps, dtype=np.int32)
_POW10_HI = np.array(_his)
_POW10_LO = np.array(_los)
_POW10_HI_HI, _POW10_HI_LO = _split(_POW10_HI)
del _exps, _his, _los
# The bound on |lo - (X - p)| after the decade correction, where X < 1e17,
# b < 2e17 < 2**58 and p < 2**57.  Each of three roundings adds at most
# 2**-49: that of L (|T - H| <= 2**-54, so |T - H - L| <= 2**-107, times
# b); that of b * L (|b * L| < 2**58 * 2**-54 = 16, half an ulp of which
# is below 2**-49); and that of e1 + b * L (|e1| <= half an ulp of p, 8,
# so the sum lies below 32).  A remainder lo - rint(lo) beyond _TIE in
# magnitude is a near-tie.
_TIE = 0.5 - 2.0 ** -47


def _masks(spans, fill: int = 0xFF) -> np.ndarray:
    """(3, len(spans)): word j of the FIELD-byte strings that hold ``fill``
    at bytes lo <= i < hi and NUL elsewhere, one per (lo, hi) in ``spans``."""
    lo, hi = np.array(spans).reshape(-1, 2, 1).transpose(1, 0, 2)
    i = np.arange(FIELD)
    strings = np.where((lo <= i) & (i < hi), fill, 0).astype(np.uint8)
    return strings.view("<u8").T.copy()


# A value's text is built in FIELD bytes held as three little-endian words.
# Byte 0 holds the sign.  The digit string holds "0000" and the 17 digits
# at bytes 3..23, so in fixed notation the decimal point falls after byte
# e + 7 for every exponent e in [-4, 16].  The digits up to the point move
# down by one byte (to bytes 2..e + 6), the point goes to byte e + 7, and
# the zeros that %.17g drops are masked out: the four leading ones (all but
# the last when e < 0) and the trailing zeros of the fraction.  The tables
# below are indexed by the layout: q = 16 - e for fixed notation, 21 (all
# masks empty) for exponent notation.
_FIXED_EXPONENTS = range(16, -5, -1)
_SCIENTIFIC = 21
# _INTEGER[:, q]: the integer part, moved down
_INTEGER = _masks([(min(e, 0) + 6, e + 7) for e in _FIXED_EXPONENTS] + [(0, 0)])
# _FRACTION and _POINT[:, q * 17 + t], for t trailing zeros of the 17
# digits: the fraction and its point, both empty when t drops them all
_FRACTION = _masks([(e + 8, 24 - t) for e in _FIXED_EXPONENTS for t in range(17)]
                   + [(0, 0)] * 17)
_POINT = _masks([(e + 7, e + 8 if 24 - t > e + 8 else 0) for e in _FIXED_EXPONENTS
                 for t in range(17)] + [(0, 0)] * 17, fill=46)
# In exponent notation the lead digit goes to byte 1, the point to byte 2,
# the other 16 digits to bytes 3..18 and the exponent to bytes 19..23.
# _SCI_DIGITS[:, t] keeps the lead digit and the fraction's digits before
# its t trailing zeros; _SCI_POINT[t] is the point, empty for t = 16.
_SCI_DIGITS = _masks([(1, 2)] * 17) | _masks([(3, 19 - t) for t in range(17)])
_SCI_POINT = _masks([(2, 3 if t < 16 else 0) for t in range(17)], fill=46)[0]
# _SCI_EXPONENT[q - _Q_MIN]: word 2 with 'e', the sign and two or three
# digits of e = 16 - q at bytes 19..23
_SCI_EXPONENT = np.frombuffer(b"".join(
    (b"\0" * 3 + b"e%+03d" % (16 - q)).ljust(8, b"\0") for q in range(_Q_MIN, _Q_MAX + 1)),
    dtype="<u8").copy()
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
# the texts of 0, -0, nan, inf and -inf, as words
_SPECIAL = np.frombuffer(b"".join(text.ljust(FIELD, b"\0")
                                  for text in (b"0", b"-0", b"nan", b"inf", b"-inf")),
                         dtype="<u8").reshape(5, 3).copy()


def _digits17(a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**q rounded half to even, as int64, exact where the result is
    at least 2**53 and the remainder within _TIE; and that remainder."""
    i = q - _Q_MIN
    b = np.ldexp(a, _POW10_EXP[i])  # a * 2**E, exact: a normal double
    p = b * _POW10_HI[i]
    b_hi, b_lo = _split(b)
    h_hi, h_lo = _POW10_HI_HI[i], _POW10_HI_LO[i]
    lo = (((b_hi * h_hi - p) + b_hi * h_lo + b_lo * h_hi) + b_lo * h_lo) + b * _POW10_LO[i]
    r = np.rint(lo)
    return p.astype(np.int64) + r.astype(np.int64), lo - r


def _words(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3) little-endian words: the '%.17g' text of each positive finite
    a, NUL-padded, with byte 0 left for the sign; and the indices of the
    near-ties, whose words are left for Python to fill."""
    q = 16 - np.floor(np.log10(a)).astype(np.int64)
    n17, remainder = _digits17(a, q)
    # n17 <= 1e16 or n17 >= 1e17, seen as unsigned: X may lie below 1e16,
    # where it can also round up to 1e16, as for the double nearest 1e-304
    off = np.flatnonzero((n17 - (10 ** 16 + 1)).view(np.uint64) >= 9 * 10 ** 16 - 1)
    if len(off):
        off = off[(n17[off] != 10 ** 16) | (remainder[off] < 0)]
        q[off] += np.where(n17[off] <= 10 ** 16, 1, -1)
        n17[off], remainder[off] = _digits17(a[off], q[off])
        # 10 X can round up to 1e17 in turn, which prints as 1e16 at the first q
        carry = off[n17[off] == 10 ** 17]
        q[carry] -= 1
        n17[carry] = 10 ** 16
    near = np.flatnonzero(np.abs(remainder) > _TIE)
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
    # fixed notation for 0 <= q <= 20; a negative q, seen as unsigned, and
    # every q above 20 become _SCIENTIFIC
    layout = np.minimum(q.view(np.uint64), _SCIENTIFIC).view(np.int64)
    tail = layout * 17 + trailing
    words = np.empty((len(a), 3), dtype=np.uint64)
    for j in range(3):
        words[:, j] = (moved[j] & _INTEGER[j].take(layout) | digits[j] & _FRACTION[j].take(tail)
                       | _POINT[j].take(tail))
    sci = np.flatnonzero(layout == _SCIENTIFIC)
    if len(sci):
        t = trailing[sci]
        d0, d1, d2 = (d[sci] for d in digits)
        words[sci, 0] = (d0 >> 48 | d1 << 24) & _SCI_DIGITS[0].take(t) | _SCI_POINT.take(t)
        words[sci, 1] = (d1 >> 40 | d2 << 24) & _SCI_DIGITS[1].take(t)
        words[sci, 2] = d2 >> 40 & _SCI_DIGITS[2].take(t) | _SCI_EXPONENT.take(q[sci] - _Q_MIN)
    return words, near


def _python_words(values: np.ndarray) -> np.ndarray:
    """(n, 3) words of ``b'%.17g' % x`` for each of ``values``, NUL-padded."""
    text = np.array([b"%.17g" % x for x in values.tolist()], dtype=f"S{FIELD}")
    return text.view("<u8").reshape(-1, 3)


def g17_fields(values: np.ndarray, out: np.ndarray) -> None:
    """Writes ``'%.17g' % x`` of each float64 in ``values`` into ``out``, of
    shape ``values.shape + (FIELD,)``, NUL-padded."""
    flat = values.reshape(-1)
    a = np.abs(flat)
    finite = (a > 0) & (a < np.inf)  # neither zero, nan nor infinite
    special = None if finite.all() else np.flatnonzero(~finite)
    # zeros, nan and infinities get a stand-in here and their constant text below
    words, near = _words(a if special is None else np.where(finite, a, 1.0))
    words[:, 0] |= (flat < 0) * np.uint64(45)  # '-'
    if special is not None:
        s = flat[special]
        words[special] = _SPECIAL[np.where(s != s, 2, np.signbit(s) + 3 * np.isinf(s))]
    if len(near):
        words[near] = _python_words(flat[near])
    out[...] = words.astype("<u8", copy=False).view(np.uint8).reshape(out.shape)


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
