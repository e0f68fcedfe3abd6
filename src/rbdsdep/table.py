"""Column tables: the in-memory form of every CSV report, and their CSV bytes.

A cell's text is fixed by the per-cell rule ``CELL_FORMAT``: the shortest
round-trip ``repr`` of a float, the plain digits of an integer, ``true`` or
``false`` for a bool.  ``CsvTable.encode`` produces those same bytes for a
whole block of rows with numpy.  Floats go through a vectorised port of the
e2 < 0 branch of Ryu's ``d2d`` (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018), which finds the shortest digits that round-trip
and, among them, the nearest, as ``repr`` does; it covers every finite
|x| < 2**54, subnormals included.  Each column is laid out right-aligned in
a field as wide as its longest cell, the fields of a block are placed side
by side, and one boolean mask squeezes out the padding.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

#: rows encoded and written per chunk of a streamed CSV report
CSV_BLOCK_ROWS = 8192
#: blocks of fewer cells keep the per-cell rule: the vectorised path costs
#: about 0.2 ms a column before its first cell and 0.25 us a cell after,
#: the rule about 0.6 us a cell, so on six-column blocks they meet near
#: 3,400 cells
ENCODE_MIN_CELLS = 4096


def _bool_cell(value) -> str:
    return "true" if value else "false"


#: cell text by column dtype kind: shortest round-trip repr for floats
CELL_FORMAT = {"b": _bool_cell, "i": str, "u": str, "f": repr}


class CsvTable:
    """A header plus one 1-d numpy column per field, all of one length.

    Each column's dtype decides how its cells are written (``CELL_FORMAT``
    by dtype kind; ``encode`` writes the same bytes), so build a column with
    the dtype of the values it holds: integer indices stay integer, counts
    stay integer.  Iterating yields the header, then each row as a list of
    Python scalars.
    """

    def __init__(self, header: Sequence[str], columns: Sequence[np.ndarray]):
        columns = [np.asarray(c) for c in columns]
        if len(columns) != len(header):
            raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
        lengths = {c.shape for c in columns}
        if len(lengths) > 1 or any(c.ndim != 1 for c in columns):
            raise ValueError(f"columns must be 1-d and of one length, got shapes {sorted(lengths)}")
        self.header = list(header)
        self.columns = columns

    @property
    def row_count(self) -> int:
        return self.columns[0].size if self.columns else 0

    def __iter__(self):
        yield list(self.header)
        for row in zip(*(c.tolist() for c in self.columns)):
            yield list(row)

    def encode(self, start: int, stop: int) -> bytes:
        """CSV lines of rows [start, stop), each ending in a newline."""
        block = [c[start:stop] for c in self.columns]
        rows = block[0].size if block else 0
        if not rows:
            return b""
        if rows * len(block) < ENCODE_MIN_CELLS or not all(map(_vectorised, block)):
            cells = [map(CELL_FORMAT[c.dtype.kind], c.tolist()) for c in block]
            return ("\n".join(map(",".join, zip(*cells))) + "\n").encode()
        fields = [_column_field(c) for c in block]
        widths = [text.shape[0] for text in fields]
        line = np.empty((rows, sum(widths) + len(widths)), np.uint8)
        at = 0
        for text, width in zip(fields, widths):
            line[:, at : at + width] = text[::-1].T
            line[:, at + width] = ord(",")
            at += width + 1
        line[:, -1] = ord("\n")
        return line[line != 0].tobytes()


def _vectorised(column: np.ndarray) -> bool:
    kind = column.dtype.kind
    return kind in "biu" or (kind == "f" and column.dtype.itemsize <= 8)


# -- block layout ------------------------------------------------------------
#
# A column's text is a (width, rows) uint8 array whose row s holds each
# cell's s-th character counted from the right, 0 where the cell is
# shorter.  Padding is thus 0, a byte no cell contains.


def _column_field(column: np.ndarray) -> np.ndarray:
    """Text array of one column's cells, trimmed to the longest."""
    kind = column.dtype.kind
    if kind == "f":
        with np.errstate(invalid="ignore"):  # a signalling NaN widens quietly
            text = _float_text(column.astype(np.float64))
    elif kind == "b":
        text = _bool_rows().take(column.view(np.uint8), axis=1)
    else:
        text = _int_text(column)
    return _trim(text)


def _trim(text: np.ndarray) -> np.ndarray:
    """Drop the rows of a text array that are padding in every cell."""
    return text[: np.flatnonzero(text.any(axis=1))[-1] + 1]


@functools.cache
def _bool_rows() -> np.ndarray:
    return np.array([list(b"eslaf"), list(b"eurt\0")], np.uint8).T.copy()


_U = np.uint64


@functools.cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0..9999 as one uint32 each, whose byte k
    (in memory order) is the k-th digit from the right."""
    g = np.arange(10000)[:, None]
    digits = ord("0") + g // 10 ** np.arange(4) % 10
    return digits.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _pow10() -> np.ndarray:
    return np.array([10**k for k in range(20)], _U)


@functools.cache
def _digit_count_table() -> tuple[np.ndarray, np.ndarray]:
    """By a float64's biased exponent e: the digit count d of 2**(e - 1023)
    and 10**d, so an integer v whose float has that exponent has d digits,
    or d + 1 when v >= 10**d.  Exponent 0 (v = 0) reads one digit.  A
    uint64 rounds up to 2**64 only from above 10**19, so that exponent
    repeats the row of 2**63."""
    digits = np.ones(1023 + 65, np.int64)
    digits[1023:-1] = (np.arange(64) * 1233 >> 12) + 1
    digits[-1] = digits[-2]
    limit = np.full(digits.size, ~_U(0))
    limit[1023:] = _pow10().take(digits[1023:])
    return digits, limit


def _digit_count(v: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 (one for 0).  Rounding v to float64
    can only carry it up to a power of two, which no power of ten is."""
    e = (v.astype(np.float64).view(_U) >> _U(52)).astype(np.intp)
    digits, limit = _digit_count_table()
    return digits.take(e) + (v >= limit.take(e))


def _digit_rows(v: np.ndarray, out: np.ndarray):
    """out[r] = ASCII digit r from the right of each v, zero-padded to 20."""
    hi = v // _U(10**16)
    lo = v - hi * _U(10**16)
    a = lo // _U(10**8)
    b = (lo - a * _U(10**8)).astype(np.uint32)
    a = a.astype(np.uint32)
    a_hi = a // np.uint32(10000)
    b_hi = b // np.uint32(10000)
    groups = (b - b_hi * np.uint32(10000), b_hi, a - a_hi * np.uint32(10000), a_hi, hi)
    quads = np.empty((5, v.size), np.uint32)
    for k, g in enumerate(groups):
        # every group is below 10000, so 'clip' never clips; it only
        # spares take a buffered copy of `out`
        np.take(_digit_quads(), g.astype(np.intp), out=quads[k], mode="clip")
    np.copyto(out.reshape(5, 4, -1), quads.view(np.uint8).reshape(5, -1, 4).transpose(0, 2, 1))


def _place(src, point, length, neg, width) -> np.ndarray:
    """Text array of digit strings: the digits of src, with a '.' before
    the last `point` of them unless point is None, `length` characters in
    all (leading zeros included), and a '-' in front where neg."""
    n = src.size
    rows = np.empty((max(width, 21) + 1, n), np.uint8)
    _digit_rows(src, rows[1:21])
    rows[21:] = ord("0")
    text = rows[1:]  # rows below the point; rows[:-1] is text moved up one
    s = np.arange(width, dtype=np.int64)[:, None]
    if point is not None:
        text[:width] -= (text[:width] - rows[:width]) * (s > point)
        text.reshape(-1)[point * n + np.arange(n)] = ord(".")
    text[:width] *= s < length
    signed = np.flatnonzero(neg)
    text.reshape(-1)[length[signed] * n + signed] = ord("-")
    return text[:width]


def _int_text(column: np.ndarray) -> np.ndarray:
    if column.dtype.kind == "u":
        mag, neg = column.astype(_U), np.zeros(column.size, bool)
    else:
        v = column.astype(np.int64)
        neg = v < 0
        mag = v.view(_U)
        mag[neg] = _U(0) - mag[neg]
    length = _digit_count(mag)
    return _place(mag, None, length, neg, int((length + neg).max()))


# -- shortest round-trip floats ------------------------------------------------

_M32 = _U(0xFFFFFFFF)
_MANT = _U((1 << 52) - 1)
_SIGN = _U(1 << 63)
#: biased exponent of 2**54: the e2 < 0 branch of d2d covers the ones below
_EXP_LIMIT = 1077


@functools.cache
def _ryu_tables():
    """Per biased exponent below 2**54: Ryu's 125-bit power of 5 (four
    32-bit limbs), the shift j of its mulShift, the decimal exponent e10
    of vr, and the mask of low bits of mv = 4*m2 that must all be 0 for vr
    to be exact (all ones where q >= 63)."""
    ie = np.arange(_EXP_LIMIT)
    e2 = np.where(ie == 0, -1076, ie - 1077)
    q = (-e2 * 732923 >> 20) - (e2 < -1)
    i = -e2 - q
    j = q - ((i * 1217359 >> 19) + 1 - 125)
    pow5 = []
    for k in range(326):
        p = 5**k
        extra = p.bit_length() - 125
        pow5.append(p >> extra if extra >= 0 else p << -extra)
    limbs = np.array([[p >> 32 * k & 0xFFFFFFFF for k in range(4)] for p in pow5], _U)
    per_exponent = limbs[i].T.copy()
    low_bits = np.where(q < 63, (_U(1) << np.minimum(q, 62).astype(_U)) - _U(1), ~_U(0))
    return per_exponent, j.astype(_U), (q + e2).astype(np.int64), low_bits


def _float_text(x: np.ndarray) -> np.ndarray:
    """Text array of repr(v) for each v of the float64 array x."""
    bits = x.view(_U)
    neg = bits >= _SIGN
    mag = bits & ~_SIGN
    # 0.0 is written as the digits 0 with one after the point, as are the
    # per-cell lanes until their own text replaces it
    digits = np.zeros(x.size, _U)
    exp10 = np.full(x.size, -1, np.int64)
    lanes = np.flatnonzero(mag - _U(1) < _U((_EXP_LIMIT << 52) - 1))
    if lanes.size == x.size:
        digits, exp10 = _shortest(mag)
    elif lanes.size:
        digits[lanes], exp10[lanes] = _shortest(mag[lanes])
    count = _digit_count(digits)
    point = count + exp10  # repr's decpt: the value is 0.ddd * 10**point
    # fixed notation: `frac` digits after the point; an integral value v
    # is written from the digits of v*10 with one, so ".0" comes out too
    frac = np.maximum(-exp10, 1)
    length = frac + 1 + np.maximum(point, 1)
    src = digits
    whole = np.flatnonzero(exp10 >= 0)
    if whole.size:
        src = digits.copy()
        src[whole] *= _pow10().take(exp10[whole] + 1)
    width = length + neg
    sci = np.flatnonzero((point <= -4) | (point > 16))
    if sci.size:
        # d.ddd then e+XX: the mantissa is placed as a fixed number, then
        # moved up past the exponent's suffix
        src[sci] = digits[sci]
        sig = count[sci]
        frac[sci] = np.maximum(sig - 1, 1)  # one digit: no point
        length[sci] = sig + (sig > 1)
        exponent = point[sci] - 1
        suffix = np.where(np.abs(exponent) >= 100, 5, 4)
        width[sci] = length[sci] + neg[sci] + suffix
    text = _place(src, frac, length, neg, int(width.max()))
    if sci.size:
        _write_exponents(text, sci, exponent, suffix)
    special = np.flatnonzero(mag >= _U(_EXP_LIMIT << 52))
    if special.size:
        text = _with_cells(text, special, [CELL_FORMAT["f"](v) for v in x[special].tolist()])
    return text


def _write_exponents(text, lanes, exponent, suffix):
    """Move the mantissas in `lanes` up by `suffix` rows and write 'e', the
    exponent's sign and its digits (at least two) below them."""
    digits = _digit_quads().take(np.abs(exponent)).view(np.uint8).reshape(-1, 4).T
    sign = np.where(exponent < 0, ord("-"), ord("+")).astype(np.uint8)
    for size in (4, 5):
        at = np.flatnonzero(suffix == size)
        if not at.size:
            continue
        cell = np.empty((text.shape[0], at.size), np.uint8)
        cell[size:] = text[: -size, lanes[at]]
        cell[: size - 2] = digits[: size - 2, at]
        cell[size - 2] = sign[at]
        cell[size - 1] = ord("e")
        text[:, lanes[at]] = cell


def _with_cells(text, lanes, cells: list[str]) -> np.ndarray:
    """Write per-cell-rule text into the given lanes."""
    raw = np.array(cells, dtype=bytes)
    chars = raw.view(np.uint8).reshape(raw.size, raw.itemsize)
    length = np.char.str_len(raw)
    back = length - 1 - np.arange(raw.itemsize)[:, None]  # row s reads char len-1-s
    rows = chars[np.arange(raw.size), np.maximum(back, 0)] * (back >= 0)
    if raw.itemsize > text.shape[0]:
        text = np.concatenate([text, np.zeros((raw.itemsize - text.shape[0], text.shape[1]), np.uint8)])
    text[:, lanes] = 0
    text[: raw.itemsize, lanes] = rows
    return text


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's d2d, e2 < 0 branch, on uint64 lanes.

    mag holds the bits of nonzero finite doubles below 2**54 with the sign
    bit clear.  Returns (digits, e10) with each value digits * 10**e10 and
    digits the shortest that round-trips, the nearest among them.  Every
    operand is uint64, scalars included: under numpy 1.x promotion a uint64
    array mixed with an int64 one turns into float64.

    Ryu's acceptBounds (an even mantissa may print a bound of its rounding
    interval) only matters where vm may end in zeros, which on this branch
    is q <= 1, |x| >= 2**50.  The bounds there are odd multiples of half a
    spacing of 1/4, 1/2, 1 or 2, so never shorter than x's own digits, and
    the cases are left out.
    """
    ie = (mag >> _U(52)).astype(np.intp)
    mant = mag & _MANT
    m2 = mant | (_U(1 << 52) * (ie != 0))
    mm_shift = (mant != _U(0)) | (ie <= 1)
    limbs, jt, e10t, low_bits = _ryu_tables()
    mv = m2 << _U(2)
    vr, vp, vm = _mul_shift_all(mv, [limb.take(ie) for limb in limbs], jt.take(ie), mm_shift)
    exact = (mv & low_bits.take(ie)) == _U(0)  # vr is mv * 2**e2 / 10**e10 exactly
    general = np.flatnonzero(exact)
    if general.size:
        kept = _remove_digits_exact(vr[general], vp[general], vm[general])
    digits, removed = _remove_digits(vr, vp, vm, np.flatnonzero(~exact))
    if general.size:
        digits[general], removed[general] = kept
    return digits, e10t.take(ie) + removed


def _mul_shift_all(mv, limbs, j, mm_shift):
    """Ryu's mulShiftAll64: floor(m * pow5 / 2**j) for m = mv, mv + 2 and
    mv - 1 - mm_shift, with mv < 2**55, pow5 < 2**125 given as four 32-bit
    limbs (low first) and 118 <= j <= 122.  Returns (vr, vp, vm)."""
    b0, b1, b2, b3 = limbs
    # X = mv * pow5 in 32-bit columns c0..c5 (m1 < 2**23, so the m1
    # products join their column whole)
    m0, m1 = mv & _M32, mv >> _U(32)
    p0, p1, p2, p3 = m0 * b0, m0 * b1, m0 * b2, m0 * b3
    t = (p0 >> _U(32)) + (p1 & _M32) + m1 * b0
    c1 = t & _M32
    t = (t >> _U(32)) + (p1 >> _U(32)) + (p2 & _M32) + m1 * b1
    c2 = t & _M32
    t = (t >> _U(32)) + (p2 >> _U(32)) + (p3 & _M32) + m1 * b2
    c3 = t & _M32
    t = (t >> _U(32)) + (p3 >> _U(32)) + m1 * b3
    c0 = p0 & _M32
    # floor(X / 2**j): c3 shifted down plus the columns above
    down = j - _U(96)
    above = (t & _M32) << (_U(128) - j)
    above += (t >> _U(32)) << (_U(160) - j)
    vr = (c3 >> down) + above
    # vp = floor((X + 2*pow5) / 2**j): add in columns, carry into c3's
    b0, b1, b2, b3 = (b << _U(1) for b in (b0, b1, b2, b3))
    t = (c0 + b0) >> _U(32)
    t = (c1 + b1 + t) >> _U(32)
    t = (c2 + b2 + t) >> _U(32)
    vp = ((c3 + b3 + t) >> down) + above
    # vm = floor((X - (1 + mm_shift)*pow5) / 2**j): subtract in columns,
    # each biased by 2**34 and its next by -4 so no column goes negative
    narrow = (~mm_shift).astype(_U)
    bias = _U(1 << 34)
    t = (c0 + bias - (b0 >> narrow)) >> _U(32)
    t = (c1 + (bias - _U(4)) - (b1 >> narrow) + t) >> _U(32)
    t = (c2 + (bias - _U(4)) - (b2 >> narrow) + t) >> _U(32)
    vm = ((c3 + (bias - _U(4)) - (b3 >> narrow) + t) >> down) + above
    vm -= _U(4) << (_U(128) - j)
    return vr, vp, vm


def _remove_digits(vr, vp, vm, lanes):
    """d2d's common case: drop digits while vp and vm differ above them.

    Two at a time first, which most values allow, then one at a time on
    the lanes still going, and all at once on the few left after two such
    steps (short decimals such as 0.3).  Only `lanes` go past the first
    step; the others belong to the exact case.
    """
    vp100 = vp // _U(100)
    vm100 = vm // _U(100)
    two = vp100 > vm100
    vr100 = vr // _U(100)
    round_up = two & (vr - vr100 * _U(100) >= _U(50))
    step = two.astype(_U)
    vr -= (vr - vr100) * step
    vp -= (vp - vp100) * step
    vm -= (vm - vm100) * step
    removed = step.astype(np.int64) * 2
    for _ in range(2):
        p10 = vp[lanes] // _U(10)
        m10 = vm[lanes] // _U(10)
        go = p10 > m10
        lanes, p10, m10 = lanes[go], p10[go], m10[go]
        r = vr[lanes]
        r10 = r // _U(10)
        round_up[lanes] = r - r10 * _U(10) >= _U(5)
        vr[lanes] = r10
        vp[lanes] = p10
        vm[lanes] = m10
        removed[lanes] += 1
    if lanes.size:
        # k more digits, k the most with vp // 10**k > vm // 10**k
        power = _pow10()
        p, m = vp[lanes], vm[lanes]
        k = (p[:, None] // power > m[:, None] // power).sum(axis=1) - 1
        lanes, k, p, m = lanes[k > 0], k[k > 0], p[k > 0], m[k > 0]
        r = vr[lanes] // power.take(k - 1)
        r10 = r // _U(10)
        round_up[lanes] = r - r10 * _U(10) >= _U(5)
        vr[lanes] = r10
        vp[lanes] = p // power.take(k)
        vm[lanes] = m // power.take(k)
        removed[lanes] += k
    return vr + ((vr == vm) | round_up).astype(_U), removed


def _remove_digits_exact(vr, vp, vm):
    """d2d's general case, for lanes whose vr is exact: the digits removed
    so far tell whether the value sits exactly halfway, which rounds to
    even."""
    last = np.zeros(vr.size, _U)
    exact = np.ones(vr.size, bool)
    removed = np.zeros(vr.size, np.int64)
    while True:
        p10 = vp // _U(10)
        m10 = vm // _U(10)
        go = p10 > m10
        if not go.any():
            break
        r10 = vr // _U(10)
        exact &= ~go | (last == _U(0))
        last = np.where(go, vr - r10 * _U(10), last)
        vr, vp, vm = np.where(go, r10, vr), np.where(go, p10, vp), np.where(go, m10, vm)
        removed += go
    last[exact & (last == _U(5)) & (vr % _U(2) == _U(0))] = 4
    return vr + ((vr == vm) | (last >= _U(5))).astype(_U), removed
