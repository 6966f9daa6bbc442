"""The CSV parse kernel of :mod:`dexpou.pathio`, the inverse of its
%.17g writer kernel.

:func:`dexpou.pathio.read_path_csv` imports this module on its first call,
so that a process that reads no CSV neither compiles nor loads it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional

import numpy as np

from .pathio import (
    _ASCII_ZEROS,
    _SCALED_MAX,
    _SPLIT,
    _TIE_MARGIN,
    _WORD,
    _is_numeric_row,
    _tables,
    _words,
)

# The reader parses blocks of whole lines of about READ_BYTES.  A block's
# work arrays take about 11 times its bytes (1.4 MB); larger blocks save
# numpy calls but raise the read's peak memory.
READ_BYTES = 1 << 17


def parse_csv(src: Path) -> Optional[tuple]:
    """The ``t`` and ``x`` columns as :func:`parse_lines` reads them, or
    None to leave the file to :func:`dexpou.pathio._parse_rows`.

    The first line is a header unless it is a numeric row, as for the row
    parser; a quote or a byte that is not UTF-8 in it, or a line longer
    than ``READ_BYTES``, also returns None.
    """
    with src.open("rb") as fh:
        # the columns are sized first, so that each block is parsed into
        # them: no parsed block is held beside the joined columns
        lines = 1  # the last line may lack its "\n"
        while chunk := fh.read(READ_BYTES):
            lines += np.count_nonzero(np.frombuffer(chunk, np.uint8)
                                      == ord("\n"))
        fh.seek(0)
        t, x = np.empty(lines), np.empty(lines)
        rows = 0
        for i, block in enumerate(_line_blocks(fh)):
            if block is None:
                return None
            if i == 0:
                line = block[:block.index(b"\n") + 1]
                if b'"' in line or b"\r" in line[:-2]:
                    return None
                try:
                    header = next(csv.reader([line.decode("utf-8")]))
                except (UnicodeDecodeError, csv.Error):
                    return None
                if not _is_numeric_row(header):
                    block = block[len(line):]
                    if not block:
                        continue
            values = parse_lines(block)
            if values is None:
                return None
            t[rows:rows + len(values)] = values[:, 0]
            x[rows:rows + len(values)] = values[:, 1]
            rows += len(values)
    return (t[:rows], x[:rows]) if rows else None


def _line_blocks(fh):
    """Blocks of whole lines read from the binary file ``fh``, about
    ``READ_BYTES`` each; a last line without ``\\n`` gets one.  Yields
    None, and stops, at a line longer than ``READ_BYTES``."""
    carry = b""
    while chunk := fh.read(READ_BYTES):
        data = carry + chunk
        cut = data.rfind(b"\n") + 1
        carry = data[cut:]
        if len(carry) > READ_BYTES:
            yield None
            return
        if cut:
            yield data[:cut]
    if carry:
        yield carry + b"\n"


# The parse kernel, the inverse of pathio._format_rows.  A token [-]M[(e|E)[+-]E]
# whose mantissa M is 1 to 24 digits with at most one "." is read from the
# three little-endian words that end where M ends, bytes before M masked to
# "0".  The "." becomes a "0" too, so the words hold one decimal integer N;
# by SWAR each word becomes its 8-digit value, and with f digits after the
# ".", D = N - 9 10^f (N // 10^(f+1)) drops that "0" again.  Its value is
# D 10^k, k = E - f, formed from D = hi + lo (exact; D < 10^18) and the
# table's 10^k = P + Q as s + t: s = fl(p + r), p = fl(hi P), r the two-
# product error of p plus hi Q + lo P, t the exact rounding error of s.  The
# arithmetic is good to about 2^-100 relative, so s is the correctly
# rounded value unless |t| is within _TIE_MARGIN ulp of half the spacing
# below or above s.  Such tokens, those out of [1/_SCALED_MAX, _SCALED_MAX]
# (zero aside) and every other shape go to float() one by one.
_TOKEN = 24  # bytes in the three words of a mantissa
_PAD = _TOKEN  # bytes around a block: no word load leaves the buffer
_HIGH7 = np.uint64(0x8080808080808080)
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_DIGIT_LIMIT = np.uint64(0x7676767676767676)  # + b sets bit 7 iff b > 9
_DOTS = np.uint64(0x1E1E1E1E1E1E1E1E)  # "." ^ "0"
_BYTE_SUM = np.uint64(0x0101010101010101)
_WORD_SCALE = np.array([1.0, 2.0 ** 64, 2.0 ** 128])  # three words as one
# SWAR: 8 digits, the first in the lowest byte, to their value in three
# steps, each joining neighbouring lanes: 10 a + b, 100 a + b, 10^4 a + b
_SWAR = tuple((np.uint64(k), np.uint64(m), np.uint64(s)) for k, m, s in (
    (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32),
))
_SWAR_FIRST = np.uint64(10 << 8 | 1)
_K_HIGH = 290  # D 10^k stays finite: D < 10^18
_EXPONENT_BITS = np.int64(0x7FF << 52)
_ULP_SHIFT = np.int64(52 << 52)
_U7, _U8, _U56, _U64 = (np.uint64(b) for b in (7, 8, 56, 64))
# the masks keeping the last m bytes of three words, and per digits f after
# the ".": 10^(f+1) and 9 10^f, both capped where N // 10^(f+1) is 0 for
# every N < 10^18
_MANTISSA = np.array([_words(((1 << 8 * m) - 1) << 8 * (_TOKEN - m), 3)
                      for m in range(_TOKEN + 1)], np.uint64).T.copy()
_TENS = np.array([10 ** min(f + 1, 18) for f in range(_TOKEN + 1)])
_NINE = np.array([9 * 10 ** min(f, 17) for f in range(_TOKEN + 1)])


def parse_lines(block: bytes) -> Optional[np.ndarray]:
    """``(rows, 2)`` float64 values of ``t,x`` lines, each as ``float``
    reads its field, or None.

    ``block`` holds whole ``\\n``-terminated lines.  None means a line does
    not hold exactly one comma, a ``\\r`` is not part of a ``\\r\\n``, or
    ``float`` rejects a field; the ``csv`` module may read such text
    otherwise, so :func:`dexpou.pathio._parse_rows` must decide.
    """
    size = 2 * _PAD + len(block)
    buf = np.zeros(size + -size % 8, np.uint8)  # whole aligned words
    text = buf[_PAD:_PAD + len(block)]
    text[:] = np.frombuffer(block, np.uint8)
    # the separators must alternate: ",", "\n", ",", "\n", ...
    sep = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    sep += _PAD
    kind = buf.take(sep)
    if (len(sep) % 2 or np.any(kind[0::2] != ord(","))
            or np.any(kind[1::2] != ord("\n"))):
        return None
    # token i is buf[start[i]:end[i]], the t and x of each row in turn
    start = np.empty_like(sep)
    start[0] = _PAD
    start[1:] = sep[:-1] + 1
    crlf = buf.take(sep[1::2] - 1) == ord("\r")
    if np.count_nonzero(text == ord("\r")) != np.count_nonzero(crlf):
        return None
    end = sep
    end[1::2] -= crlf
    negative = buf.take(start) == ord("-")
    first = start + negative
    last = end.copy()  # where the mantissa ends
    exponent = np.zeros(len(sep), np.int64)
    ok = np.ones(len(sep), np.bool_)
    marks = np.flatnonzero((text | 0x20) == ord("e"))
    if marks.size:
        marks += _PAD
        token = end.searchsorted(marks)
        once = np.ones(len(token), np.bool_)  # the first mark of a token
        once[1:] = token[1:] != token[:-1]
        token, marks = token[once], marks[once]
        exponent[token], ok[token] = _exponents(buf, marks + 1, end[token])
        last[token] = marks
    values = _decimals(buf, first, last, exponent, ok)
    np.negative(values, out=values, where=negative)
    for i in np.flatnonzero(~ok):
        try:
            values[i] = float(buf[start[i]:end[i]].tobytes())
        except ValueError:
            return None
    return values.reshape(-1, 2)


def _decimals(buf, first, last, exponent, ok) -> np.ndarray:
    """``|M| 10^exponent`` of each mantissa ``buf[first:last]``; clears
    ``ok`` where the kernel cannot certify the value.  Works in place where
    it can, ``exponent`` included: the work arrays are block-sized."""
    tables = _tables()
    size = last - first
    ok &= (size >= 1) & (size <= _TOKEN)
    np.clip(size, 0, _TOKEN, out=size)
    # the 24 bytes before `last`, from four aligned words
    at = last - _TOKEN
    aligned = buf.view(_WORD)[(at >> 3) + np.arange(4)[:, None]]
    at &= 7
    at <<= 3
    shift = at.astype(np.uint64)
    v = aligned[:3] >> shift
    shift = _U64 - shift
    tail = aligned[1:]
    tail <<= shift  # a shift by 64 gives 0
    v |= tail
    del aligned, tail, shift
    v ^= _ASCII_ZEROS
    v &= _MANTISSA.take(size, axis=1)  # bytes before M read "0"
    # each "." byte (0x1e): 1 in bit 0 of its byte of `dots`, then "0"
    dots = v ^ _DOTS
    np.bitwise_or(dots + _LOW7, dots, out=dots)  # no carry in valid bytes
    dots ^= _HIGH7
    dots &= _HIGH7
    dots >>= _U7
    v -= dots * np.uint64(0x1E)
    digits = v + _DIGIT_LIMIT
    digits |= v
    np.bitwise_or(digits[0], digits[1], out=digits[0])
    np.bitwise_or(digits[0], digits[2], out=digits[0])
    digits[0] &= _HIGH7
    ok &= digits[0] == 0
    del digits
    count = dots[0] + dots[1]
    count += dots[2]
    count *= _BYTE_SUM
    count >>= _U56
    ok &= (count <= 1) & (size > count)
    # digits after the ".": 24 without one (then N // 10^(f+1) is 0)
    f = np.frexp(_WORD_SCALE @ dots)[1]
    f -= 1
    f >>= 3
    np.subtract(23, f, out=f)
    del dots
    v *= _SWAR_FIRST  # wraps harmlessly: each lane's sum stays in it
    v >>= _U8
    for keep, mul, shift in _SWAR:
        v &= keep
        v *= mul
        v >>= shift
    ok &= v[0] < 100  # N < 10^18
    v[0] *= np.uint64(10 ** 16)
    v[0] += v[2]
    v[1] *= np.uint64(10 ** 8)
    v[0] += v[1]
    d = v[0].view(np.int64)
    d -= _NINE.take(f) * (d // _TENS.take(f))
    f *= count.view(np.int64)
    exponent -= f
    zero = d == 0
    ok &= ((exponent >= tables.k0) & (exponent <= _K_HIGH)) | zero
    exponent -= tables.k0
    at = np.clip(exponent, 0, len(tables.hi) - 1, out=exponent)

    # tokens not certified below can overflow or divide by zero: ignored
    with np.errstate(all="ignore"):
        hi = d.astype(np.float64)
        lo = (d - hi.astype(np.int64)).astype(np.float64)
        big = tables.hi.take(at)
        p = hi * big
        head = _SPLIT * hi
        head -= head - hi
        tail = hi - head
        hh, ht = tables.hi_head.take(at), tables.hi_tail.take(at)
        r = head * hh
        r -= p
        head *= ht
        r += head
        r += tail * hh
        tail *= ht
        r += tail
        lo *= big
        hi *= tables.lo.take(at)
        lo += hi
        r += lo
        s = p + r
        p -= s
        p += r  # the exact rounding error of s
        # certified: |p| / ulp, in [0, 1/2], is far from 1/2, and from 1/4
        # at a power of two, where the spacing below s halves
        bits = s.view(np.int64)
        ulp = bits & _EXPONENT_BITS
        ulp -= _ULP_SHIFT
        np.abs(p, out=p)
        p /= ulp.view(np.float64)
        p -= 0.5
        np.abs(p, out=p)
        fine = p > _TIE_MARGIN
        power = np.flatnonzero((bits & (2 ** 52 - 1)) == 0)
        fine[power] &= np.abs(p[power] - 0.25) > _TIE_MARGIN
        fine &= s >= 1 / _SCALED_MAX
        fine &= s <= _SCALED_MAX
    fine |= zero
    ok &= fine
    return s


def _exponents(buf, start, stop):
    """Values of the ``[+-]digits`` exponents at ``buf[start:stop]``, and
    whether each has one to three digits."""
    sign = buf.take(start)
    at = start + ((sign == ord("-")) | (sign == ord("+")))
    count = stop - at
    ok = (count >= 1) & (count <= 3)
    value = np.zeros(len(at), np.int64)
    for j in range(3):
        digit = buf.take(at + j).astype(np.int64) - ord("0")
        used = j < count
        ok &= ~used | ((digit >= 0) & (digit <= 9))
        value = np.where(used, value * 10 + digit, value)
    return np.where(sign == ord("-"), -value, value), ok
