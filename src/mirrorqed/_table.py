"""CSV rows of doubles, byte for byte as ``'%.17g' % v`` writes each value.

A table of fewer than ``SMALL_TABLE`` values goes through one ``%`` over the
whole table.  A larger one is formatted by numpy in blocks of ``BLOCK_VALUES``
values.  The 17 correctly rounded digits of a value a with decimal exponent X
come from the product a * 10**(16 - X): with Dekker's split of a and 10**k
held as a double-double, its integer part is exact in int64 and its fraction
is off by at most 2**-47, which decides the rounding of the last digit.  Each
value then fills a record of four little-endian 64-bit words, taken whole
from lookup tables: sign and "0.000" prefix, the digits, four at a time,
with their point, exponent and separator.  A byte that '%.17g' would leave
out holds 0, and one ``bytes.translate`` drops every 0 of the block.  Values
the fast pass cannot vouch for are written by ``'%.17g' % v`` in place: nan,
+-inf, nonzero |a| outside [1e-250, 1e250), and fractions within 1e-7 of 1/2
(exact and near ties).  The bytes are therefore the per-value ones by
construction.  The rows stay bytes until they are written.
"""

from __future__ import annotations

import functools

import numpy as np

# Below this many values one '%' over the table is faster than the numpy pass: in
# a CLI run the two cross at ~300-390 values (in a hot loop at 180-204 values).
SMALL_TABLE = 320
# Values per numpy pass: each pass pays ~0.1 ms for its ~100 numpy calls, and
# its work arrays peak at ~180 bytes a value.  In process the README tables
# format fastest at 4096-8192 values per pass, and ~10% slower at 2048.
BLOCK_VALUES = 4096

_FAST_MIN, _FAST_MAX = 1e-250, 1e250  # the nonzero |a| the numpy pass formats
_X_MIN, _X_MAX = -251, 250  # the exponents it meets, log10 one off included
_TIE = 1e-7  # fractions this close to 1/2 go to '%.17g'
_E16, _E17 = 10**16, 10**17

# A record is 32 bytes: the sign at byte 0, the prefix at 1-5, the digits at
# 7-23 with byte 6 free for the point's shift, the exponent at 24-28, the
# separator at 29 and 0 at 30-31.
_WORD = np.dtype("<u8")
_RECORD, _SEP = 32, 29
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 8 * (_SEP - 24))  # turns "," to "\n"


def _split(x):
    """Dekker's split of x into a high half of 26 bits and an exact remainder."""
    c = x * 134217729.0  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


@functools.cache
def _tables():
    """Lookup tables, built on first use from integer arithmetic alone.

    Row i of ``powers`` is 10**(16 - X) for the exponent X = i - 251 as the
    double-double hi + lo, with hi split as hi_h + hi_l: hi is the nearest
    double, lo the nearest double to the residual.  Word g of ``quads`` holds
    the four ASCII digits of g in its low bytes.  Row 2 * i + s of ``words``
    is the record of a value with exponent X and sign bit s before its digits
    go in: the sign and prefix in word 0, the exponent and separator in word
    3, and in word 1 the first row, 18 * form, of its masks.  Words 0-2 of
    row 18 * form + n of ``lead``, ``after`` and ``point``, for a value of n
    significant digits, keep the digits before the point, shifted one byte
    down, and the digits after it, and hold the point; word 3 pads the rows
    to the 32 bytes that numpy's take copies fastest.
    """
    pairs = []
    for k in range(16 - _X_MIN, 16 - _X_MAX - 1, -1):
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
    powers = np.stack([hi, *_split(hi), lo], axis=1)

    # the four ASCII digits of each group as one word: digit k of g is byte k
    quads = (np.indices((10,) * 4, np.uint8) + np.uint8(ord("0"))).reshape(4, -1).T
    quads = np.ascontiguousarray(quads).view("<u4").ravel().astype(_WORD)

    x = np.arange(_X_MIN, _X_MAX + 2)  # a rounding carry adds one
    # form 0 is 0.000ddd, forms 1-16 put the point after that many digits (the
    # exponent form after one), form 17 writes all 17 digits of an integer
    forms = np.where(x < 0, 0, np.minimum(x + 1, 17))
    forms[(x < -4) | (x >= 17)] = 1
    heads = b"".join(b"\0" + (b"0.000"[:1 - e] if -4 <= e < 0 else b"").ljust(7, b"\0")
                     for e in x.tolist())
    tails = b"".join((b"" if -4 <= e < 17 else b"e%+03d" % e).ljust(5, b"\0") + b",\0\0"
                     for e in x.tolist())
    words = np.zeros((x.size, 2, 4), _WORD)  # rows 2 * i and 2 * i + 1: sign bit 0 and 1
    words[..., 0] = np.frombuffer(heads, _WORD)[:, None]
    words[:, 1, 0] += ord("-")
    words[..., 1] = 18 * forms[:, None]
    words[..., 3] = np.frombuffer(tails, _WORD)[:, None]
    words = words.reshape(-1, 4)

    form = np.arange(18)[:, None, None]
    significant = np.arange(18)[:, None]
    slot = np.arange(24)
    # the digits before the point, or all kept digits where no point is in the body
    whole = np.where(form == 0, significant, form)
    visible = significant > whole
    masks = np.zeros((3, 18, 18, 32), np.uint8)
    masks[0, ..., :24] = ((slot >= 6) & (slot < 6 + whole)) * 0xFF
    masks[1, ..., :24] = (visible & (slot > 6 + whole) & (slot < 7 + significant)) * 0xFF
    masks[2, ..., :24] = (visible & (slot == 6 + whole)) * ord(".")
    tables = powers, quads, words, *masks.view(_WORD).reshape(3, 18 * 18, 4)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, i, powers):
    """a * 10**(16 - x) for positive a, i = x + 251: its integer part and its fraction."""
    hi, hi_h, hi_l, lo = powers.take(i, axis=0, mode="clip").T
    product = a * hi  # an integer: a * 10**(16 - x) > 2**53 once x is right
    a_h, a_l = _split(a)
    # ((a_h * hi_h - product) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    rest = a_h * hi_h
    rest -= product
    rest += a_h * hi_l
    rest += a_l * hi_h
    rest += a_l * hi_l
    rest += a * lo
    floor = np.floor(rest)
    rest -= floor
    return product.astype(np.int64) + floor.astype(np.int64), rest


def _digits(values: np.ndarray, powers: np.ndarray):
    """The 17 digits of each |value| as one int64 (0 for a zero), the row of
    its exponent X in the tables (X + 251), and where '%.17g' must write it."""
    a = np.abs(values)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)  # False for nan and inf
    zero = a == 0  # formatted as 1, whose digits become 0 below
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp)
    i -= _X_MIN
    whole_part, fraction = _scaled(a, i, powers)
    # log10 can land one off next to a power of ten: rescale those values
    redo = np.flatnonzero((whole_part < _E16) | (whole_part >= _E17))
    if redo.size:
        i[redo] += np.where(whole_part[redo] < _E16, -1, 1)
        whole_part[redo], fraction[redo] = _scaled(a[redo], i[redo], powers)
    digits = whole_part + (fraction > 0.5)
    slow = ~(fast | zero) | (np.abs(fraction - 0.5) < _TIE)
    carry = np.flatnonzero(digits == _E17)
    digits[carry] = _E16
    i[carry] += 1
    digits[zero] = 0
    return digits, i, slow


def _digit_words(digits: np.ndarray, quads: np.ndarray):
    """Record words 0-2 of the digits, the first in byte 7 and then four groups
    of four, and the count of digits up to the last nonzero one."""
    top = digits // 10**8
    halves = np.empty((2, digits.size), np.int64)
    np.subtract(digits, top * 10**8, out=halves[1])
    first = top // 10**8
    np.subtract(top, first * 10**8, out=halves[0])
    upper = halves // 10**4
    lower = halves - upper * 10**4
    body = np.empty((3, digits.size), _WORD)
    np.left_shift(first + ord("0"), 56, out=body[0], casting="unsafe")
    np.bitwise_or(quads.take(upper, mode="clip"), quads.take(lower, mode="clip") << 32,
                  out=body[1:])
    # The highest nonzero byte of the two digit words once their "0"s are
    # cleared: as a double, whose top byte of at most 9 cannot round up into
    # the next byte, that 128-bit number has the exponent 1023 + 8 (bytes - 1)
    # + 0-3, so bits 55-62 of the double plus 2**52 hold 127 + bytes, or 0.
    cleared = (body[1:] ^ _ZEROS).astype(float)
    cleared[1] *= 2.0**64
    cleared[1] += cleared[0]
    kept_bytes = cleared[1].view(np.int64) + 2**52 >> 55
    return body, np.maximum(kept_bytes - 126, 1)


def _format_block(values: np.ndarray, ncols: int, start: int) -> bytes:
    """Values of a row-order table from flat index ``start`` on, as CSV bytes."""
    powers, quads, words, lead, after, point = _tables()
    digits, i, slow = _digits(values, powers)
    body, significant = _digit_words(digits, quads)
    rec = words.take(2 * i + np.signbit(values), axis=0, mode="clip")
    index = rec[:, 1].view(np.int64) + significant
    # the digits before the point move one byte down, those after it stay
    shifted = body >> 8
    shifted[:2] |= body[1:] << 56
    shifted &= lead.take(index, axis=0, mode="clip")[:, :3].T
    body &= after.take(index, axis=0, mode="clip")[:, :3].T
    body |= shifted
    body |= point.take(index, axis=0, mode="clip")[:, :3].T
    rec[:, 0] |= body[0]
    rec[:, 1] = body[1]
    rec[:, 2] = body[2]
    rec[(ncols - 1 - start) % ncols::ncols, 3] ^= _NEWLINE

    text = rec.view(np.uint8).reshape(values.size, _RECORD)
    for k in np.flatnonzero(slow):
        value = b"%.17g" % values[k]
        text[k, :_SEP] = 0
        text[k, :len(value)] = np.frombuffer(value, np.uint8)
    return text.tobytes().translate(None, b"\0")


def format_rows(columns: list[np.ndarray]) -> bytes:
    """Equal-length float columns as ASCII CSV rows, each ending in a newline."""
    table = np.column_stack(columns)
    nrows, ncols = table.shape
    if table.size < SMALL_TABLE:
        row = ",".join(["%.17g"] * ncols) + "\n"
        return ((row * nrows) % tuple(table.ravel().tolist())).encode("ascii")
    flat = table.ravel()
    return b"".join(_format_block(flat[start:start + BLOCK_VALUES], ncols, start)
                    for start in range(0, flat.size, BLOCK_VALUES))
