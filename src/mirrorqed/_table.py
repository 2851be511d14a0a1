"""CSV rows of doubles, byte for byte as ``'%.17g' % v`` writes each value.

A table of fewer than ``SMALL_TABLE`` values goes through one ``%`` over the
whole table.  A larger one is formatted by numpy in blocks of ``BLOCK_ROWS``
rows.  The 17 correctly rounded digits of a value a with decimal exponent X
come from the product a * 10**(16 - X): with Dekker's split of a and 10**k
held as a double-double, its integer part is exact in int64 and its fraction
is off by at most 2**-47, which decides the rounding of the last digit.  Each
value then fills fixed byte slots (sign, "0.000" prefix, digits with their
point, exponent, separator); a slot that '%.17g' would leave out holds 0, and
one ``bytes.translate`` drops every 0 of the block.  Values the fast pass
cannot vouch for are written by ``'%.17g' % v`` in place: nan, +-inf, nonzero
|a| outside [1e-250, 1e250), and fractions within 1e-7 of 1/2 (exact and
near ties).  The bytes are therefore the per-value ones by construction.
"""

from __future__ import annotations

import functools

import numpy as np

# Below this many values one '%' over the table is faster than the numpy pass:
# in process the two cross at 290-330 values, on 2- to 4-column tables.
SMALL_TABLE = 320
# Rows per numpy pass: a few thousand values keep the work arrays small.
BLOCK_ROWS = 1024

_FAST_MIN, _FAST_MAX = 1e-250, 1e250  # the nonzero |a| the numpy pass formats
_X_MIN, _X_MAX = -251, 250  # the exponents it meets, log10 one off included
_TIE = 1e-7  # fractions this close to 1/2 go to '%.17g'
_E16, _E17 = 10**16, 10**17

# Slots of one value: sign, "0.000", 17 digits and a point, "e+ddd", separator.
_PREFIX, _BODY, _EXP, _SEP, _WIDTH = 1, 6, 24, 29, 30
_SLOTS = np.arange(_EXP - _BODY, dtype=np.uint8)[:, None]


def _split(x):
    """Dekker's split of x into a high half of 26 bits and an exact remainder."""
    c = x * 134217729.0  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


@functools.cache
def _tables():
    """Lookup tables, built on first use from integer arithmetic alone.

    Column 250 - X of ``powers`` is 10**(16 - X) as the double-double hi + lo,
    with hi split as hi_h + hi_l: hi is the nearest double, lo the nearest
    double to the residual.  Column g of ``quads`` holds the four ASCII
    digits of g.  Column X + 251 of ``prefix`` and ``exponent`` holds the
    bytes of those slots for a value with exponent X, of ``point`` the body
    slot of its point and of ``whole`` how many leading digits it always keeps.
    """
    pairs = []
    for k in range(16 - _X_MAX, 16 - _X_MIN + 1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            scale = 10**-k
            hi = 1 / scale  # correctly rounded, as is the residual below
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        pairs.append((hi, lo))
    hi, lo = np.array(pairs).T
    powers = np.stack([hi, *_split(hi), lo])

    quads = (np.indices((10,) * 4, np.uint8) + np.uint8(ord("0"))).reshape(4, -1)

    def slot_bytes(texts):
        joined = b"".join(text.ljust(5, b"\0") for text in texts)
        return np.frombuffer(joined, np.uint8).reshape(-1, 5).T.copy()

    exponents = range(_X_MIN, _X_MAX + 2)  # a rounding carry adds one
    prefix = slot_bytes(b"0.000"[:1 - x] if -4 <= x < 0 else b"" for x in exponents)
    exponent = slot_bytes(b"" if -4 <= x < 17 else b"e%+03d" % x for x in exponents)
    x = np.array(exponents)
    # 0.000ddd has its point in the prefix, ddd.ddd after digit X, d.ddde+dd after one
    whole = np.where(x < 0, 0, x + 1)
    whole[(x < -4) | (x >= 17)] = 1
    point = np.where(whole == 0, _EXP - _BODY - 1, whole)
    tables = powers, quads, prefix, exponent, point.astype(np.uint8), whole.astype(np.uint8)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, x, powers):
    """a * 10**(16 - x) for positive a: its integer part and its fraction."""
    hi, hi_h, hi_l, lo = powers.take(_X_MAX - x, axis=1)
    product = a * hi  # an integer: a * 10**(16 - x) > 2**53 once x is right
    a_h, a_l = _split(a)
    error = ((a_h * hi_h - product) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    rest = error + a * lo
    floor = np.floor(rest)
    return product.astype(np.int64) + floor.astype(np.int64), rest - floor


def _format_block(values: np.ndarray, ncols: int) -> bytes:
    """Rows of ``ncols`` values each, given in row order, as CSV bytes."""
    powers, quads, prefix, exponent, point, whole = _tables()
    n = values.size
    a = np.abs(values)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # False for nan and inf
    zero = a == 0  # formatted as 1, whose one kept digit becomes "0" below
    a = np.where(fast, a, 1.0)

    x = np.floor(np.log10(a)).astype(np.intp)
    whole_part, fraction = _scaled(a, x, powers)
    # log10 can land one off next to a power of ten: rescale those values
    off = (whole_part >= _E17).astype(np.intp) - (whole_part < _E16)
    redo = np.flatnonzero(off)
    if redo.size:
        x[redo] += off[redo]
        whole_part[redo], fraction[redo] = _scaled(a[redo], x[redo], powers)
    digits = whole_part + (fraction > 0.5)
    slow = ~(fast | zero) | (np.abs(fraction - 0.5) < _TIE)
    carry = digits == _E17
    digits[carry] = _E16
    x += carry

    # rows 1-17 of ext hold the 17 ASCII digits; rows 0 and 18 only pad the
    # shift below, and no slot that is kept reads them
    ext = np.empty((19, n), np.uint8)
    mask = np.empty((_EXP - _BODY, n), np.uint8)
    head = digits // 10**8
    first = head // 10**8
    ext[1] = first + ord("0")
    for at, group in ((2, head - first * 10**8), (10, digits - head * 10**8)):
        group = group.astype(np.int32)
        upper = group // 10**4
        np.take(quads, upper, axis=1, out=ext[at:at + 4])
        np.take(quads, group - upper * 10**4, axis=1, out=ext[at + 4:at + 8])
    # the count of digits up to the last nonzero one
    np.not_equal(ext[1:18], ord("0"), out=mask[1:].view(bool))
    significant = np.multiply(mask[1:], _SLOTS[1:], out=mask[1:]).max(axis=0)
    ext[1, zero] = ord("0")

    i = x - _X_MIN
    q = point.take(i)
    rec = np.empty((_WIDTH, n), np.uint8)
    np.multiply(np.signbit(values), ord("-"), out=rec[0], dtype=np.uint8)
    np.take(prefix, i, axis=1, out=rec[_PREFIX:_BODY])
    np.take(exponent, i, axis=1, out=rec[_EXP:_SEP])
    rec[_SEP] = ord(",")
    rec[_SEP, ncols - 1::ncols] = ord("\n")
    # digits before the point stay in their slot, those after it move one right
    body = rec[_BODY:_EXP]
    left, right = ext[1:], ext[:-1]
    np.greater(_SLOTS, q, out=mask.view(bool))
    np.subtract(right, left, out=body)
    body *= mask
    body += left
    body[q, np.arange(n)] = ord(".")
    # then every slot past the kept digits and the point is emptied
    kept = np.maximum(whole.take(i), significant) + (significant > q)
    np.less(_SLOTS, kept, out=mask.view(bool))
    body *= mask

    for k in np.flatnonzero(slow):
        text = b"%.17g" % values[k]
        rec[:_SEP, k] = 0
        rec[:len(text), k] = np.frombuffer(text, np.uint8)
    return rec.T.tobytes().translate(None, b"\0")


def format_rows(columns: list[np.ndarray]) -> str:
    """Equal-length float columns as CSV rows, each ending in a newline."""
    table = np.column_stack(columns)
    nrows, ncols = table.shape
    if table.size < SMALL_TABLE:
        row = ",".join(["%.17g"] * ncols) + "\n"
        return (row * nrows) % tuple(table.ravel().tolist())
    blocks = [_format_block(table[start:start + BLOCK_ROWS].ravel(), ncols)
              for start in range(0, nrows, BLOCK_ROWS)]
    return b"".join(blocks).decode("ascii")
