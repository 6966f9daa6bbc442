"""CSV path export/ingestion and JSON metadata sidecars.

Export format: header ``t,x``, one row per retained observation at
``t_j = j h``, all numbers with 17 significant digits, byte-identical to
:func:`fmt` (``"%.17g"``) per value.  Rows are rendered a block of a few
thousand at a time by a numpy kernel: each value's 17 digits are
``round(|x| 10^(16 - e10))`` with the product formed in double-double
arithmetic, so they are certified whenever the fraction of that product is
not within 1e-6 of one half (the arithmetic is good to about 1e-14).  The
rest, exact ties among them, and zeros, NaN, infinities and magnitudes
outside [1e-280, 1e280] are formatted by :func:`fmt` itself; on simulated
paths that never happens.  A JSON sidecar
(``<stem>.meta.json``) records parameters, seed, spacing, length, and
burn-in, so a simulation run is fully reproducible from its outputs.

Ingestion accepts any two-column ``t,x`` CSV with constant spacing; the
spacing is inferred from the first two rows and enforced afterwards with
tolerance ``1e-9 * h`` plus four ulps of the largest ``|t|``, the rounding of
``t = h j`` on a long path.  The file is read in blocks of whole lines, and a
numpy kernel, the writer's inverse (:mod:`dexpou._csvparse`, loaded on the
first read), parses each block: a field of the form
``[-]digits[.digits][(e|E)[+-]digits]`` of at most 24 bytes is read from
its bytes by SWAR and scaled in double-double arithmetic against the
writer's power table, which gives ``float(field)``'s bits unless the value
is within 1e-6 ulp of a rounding midpoint or outside [1e-280, 1e280]; such
fields and every other form go to ``float`` one by one.  Only a file that
is not plain ``t,x`` lines (a line without exactly one comma, a quote, a
lone ``\\r``) or has a field ``float`` rejects is read again by a
row-by-row parser, so that ragged rows, blank lines, non-numeric fields and
bytes that are not UTF-8 are rejected naming the first offending data row.
Non-finite values and non-uniform spacing are rejected the same way.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .model import ModelParams
from .simulate import SamplePath

__all__ = [
    "fmt",
    "write_path_csv",
    "read_path_csv",
    "metadata_path",
    "write_metadata",
]

SPACING_RTOL = 1e-9


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering (round-trips float64)."""
    return f"{float(x):.17g}"


def metadata_path(csv_path) -> Path:
    """Sidecar location: same stem with suffix ``.meta.json``."""
    p = Path(csv_path)
    return p.with_name(p.stem + ".meta.json")


def write_path_csv(path: SamplePath, csv_path) -> Path:
    """Write the ``t,x`` CSV; returns the written location."""
    times = _Times(path.h, len(path.values))
    return _write_float_csv(csv_path, ("t", "x"), (times, path.values))


class _Times:
    """:attr:`SamplePath.times` a slice at a time: ``h * arange`` of the
    slice's indices gives the same bits without the path-sized arrays."""

    def __init__(self, h: float, n: int):
        self.h, self.n = h, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.n)
        return self.h * np.arange(start + 1, stop + 1)


# rows per formatting block: large enough to amortise numpy's per-call
# overhead, small enough that the block's work arrays stay a few hundred kB
_BLOCK_ROWS = 4096


def _write_float_csv(csv_path, header, columns) -> Path:
    """Write equal-length float columns under ``header``, each value as :func:`fmt`."""
    out = Path(csv_path)
    n = len(columns[0])
    with out.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        block = np.empty((min(n, _BLOCK_ROWS), len(columns)))
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            rows = block[:stop - start]
            for j, column in enumerate(columns):
                rows[:, j] = column[start:stop]
            fh.write(_format_rows(rows))
    return out


# The %.17g kernel.  A value x with |x| in [1/_SCALED_MAX, _SCALED_MAX] is
# rendered from D = round(y), y = |x| 10^(16 - e10), its 17 significant
# digits, with e10 = floor(log10 |x|).  10^k = hi + lo is tabulated with
# both parts rounded from exact integers, and y = p + err: p = fl(|x| hi),
# err = its exact rounding error (Dekker's two-product) + |x| lo.  With y in
# [1e16, 1e17), |err| < 20, and lo's own error, the rounding of |x| lo and
# that of the sum are each below 2^-49, so the computed fraction of y is
# within 2^-47 of the exact one.  A fraction within _TIE_MARGIN of 1/2 (far
# wider than that bound) could round either way, or is an exact tie that %g
# breaks to even: such values, zeros, NaN, +-inf and values out of range go
# to fmt, one by one.  The text is built in 32-byte cells, four
# little-endian uint64 words per value, byte j of the text in byte j of the
# cell, and one boolean mask cuts each cell's text out.
_SCALED_MAX = 1e280
_TIE_MARGIN = 1e-6
_E_LOW, _E_HIGH = -282, 282  # e10 of any value in range, adjusted by 1
_K_LOW = -298  # the reader's D 10^k, D < 10^18, reaches 1e-280 from here
_CELL = 32
_SCI = 21  # notation class of scientific notation; c = e10 + 4 when fixed
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp splitting of a double
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_U8, _U16, _U32, _U56 = (np.uint64(b) for b in (8, 16, 32, 56))
_WORD = np.dtype("<u8")  # cells are read as bytes: little-endian words


def _words(bits: int, count: int) -> list:
    """``bits`` as ``count`` little-endian uint64 words."""
    return [(bits >> (64 * i)) & (2 ** 64 - 1) for i in range(count)]


class _Tables:
    """Read-only lookup tables of the %.17g kernel (about 0.1 MB); the
    parse kernel of :mod:`dexpou._csvparse` shares the powers of 10."""

    def __init__(self):
        # hi + lo = 10^k for every k = 16 - e10 in range, and every k the
        # parse kernel takes
        powers = range(_K_LOW, 17 - _E_LOW)
        self.k0 = powers.start
        hi = np.empty(len(powers))
        lo = np.empty(len(powers))
        for i, k in enumerate(powers):
            num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
            hi[i] = num / den  # int / int rounds correctly
            h_num, h_den = hi[i].as_integer_ratio()
            lo[i] = (num * h_den - h_num * den) / (den * h_den)
        split = _SPLIT * hi
        self.hi, self.lo = hi, lo
        self.hi_head = split - (split - hi)
        self.hi_tail = hi - self.hi_head
        # ASCII of 0000..9999, first digit in the lowest byte
        i = np.arange(10000)
        ascii4 = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], 1)
        self.digits = ((ascii4 + ord("0")).astype(np.uint8)
                       .view("<u4")[:, 0].astype(np.uint64))
        e10 = np.arange(_E_LOW, _E_HIGH + 1)
        self.cls = np.where((e10 >= -4) & (e10 < 17), e10 + 4, _SCI)
        # bytes of the 17 digits before the point, per class; 18 (classes
        # of e10 < 0) puts no point among them: it is in the prefix "0.0.."
        point = [18] * 4 + list(range(1, 18)) + [1]
        every = 2 ** 192 - 1
        self.below = self._word_columns([(1 << 8 * k) - 1 for k in point], 3)
        self.above = self._word_columns(
            [every ^ ((1 << 8 * (k + 1)) - 1) for k in point], 3)
        self.dot = self._word_columns([ord(".") << 8 * k for k in point], 3)
        # per u = 2 c + sign: the prefix and its length in bits
        prefixes = ["-" * sign + ("0." + "0" * (3 - c) if c < 4 else "")
                    for c in range(_SCI + 1) for sign in (0, 1)]
        self.prefix = np.array([int.from_bytes(t.encode(), "little")
                                for t in prefixes], np.uint64)
        self.shift = np.array([8 * len(t) for t in prefixes], np.uint64)
        self.back = 64 - self.shift
        # text length before any exponent, per 18 u + significant digits nd
        self.length = np.array([
            len(t) + (nd if point[u // 2] == 18
                      else max(nd + (nd > point[u // 2]), point[u // 2]))
            for u, t in enumerate(prefixes) for nd in range(18)], np.int64)
        # cell masks keeping the first n bytes
        self.keep = np.array([_words((1 << 8 * n) - 1, 4)
                              for n in range(_CELL + 1)], _WORD)
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    @staticmethod
    def _word_columns(masks, count):
        return np.array([_words(m, count) for m in masks], np.uint64).T.copy()


@functools.cache
def _tables() -> _Tables:
    """Built on first use: building takes a few ms, which imports should not pay."""
    return _Tables()


def _scaled(a, e10, tables):
    """Integer part and fraction of ``a 10^(16 - e10)``."""
    at = (16 - tables.k0) - e10
    hi = tables.hi.take(at)
    p = a * hi
    split = _SPLIT * a
    head = split - (split - a)
    tail = a - head
    hh, ht = tables.hi_head.take(at), tables.hi_tail.take(at)
    err = ((head * hh - p) + head * ht + tail * hh) + tail * ht
    err += a * tables.lo.take(at)
    whole = np.floor(err)
    err -= whole
    whole = whole.astype(np.int64)
    whole += p.astype(np.int64)  # p >= 2^53 is an integer
    return whole, err


def _format_rows(rows: np.ndarray) -> np.ndarray:
    """ASCII of a float64 ``(r, k)`` block as CSV rows: each value exactly
    as :func:`fmt`, ``,`` between columns and ``\\n`` after each row."""
    tables = _tables()
    v = np.ascontiguousarray(rows, np.float64).reshape(-1)
    m = len(v)
    a = np.abs(v)
    ok = (a >= 1 / _SCALED_MAX) & (a <= _SCALED_MAX)
    a[~ok] = 1.0
    e10 = np.log10(a)
    np.floor(e10, out=e10)
    e10 = e10.astype(np.int64)
    whole, frac = _scaled(a, e10, tables)
    # log10 can be one off near a power of 10: fix e10 from the unrounded
    # y; whole = 10^17 - 1 joins them, as it may round up to 10^17
    off = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17 - 1))
    if off.size:
        step = (whole[off] >= 10 ** 17).astype(np.int64)
        e10[off] += step - (whole[off] < 10 ** 16)
        whole[off], frac[off] = _scaled(a[off], e10[off], tables)
        ok[off] &= (whole[off] >= 10 ** 16) & (whole[off] < 10 ** 17)
    ok &= np.abs(frac - 0.5) > _TIE_MARGIN
    digits = whole + (frac > 0.5)
    if off.size:
        top = off[digits[off] == 10 ** 17]  # rounds up to the next decade
        digits[top] = 10 ** 16
        e10[top] += 1

    # the 17 digits as ASCII: s0 = digits 0-7, s1 = 8-15, s2 = 16
    q = digits // 10
    last = digits - q * 10
    high = q // 10 ** 8
    low = q - high * 10 ** 8
    g0 = high // 10 ** 4
    g2 = low // 10 ** 4
    s0 = tables.digits.take(g0)
    s0 |= tables.digits.take(high - g0 * 10 ** 4) << _U32
    s1 = tables.digits.take(g2)
    s1 |= tables.digits.take(low - g2 * 10 ** 4) << _U32
    s2 = (last + ord("0")).astype(np.uint64)
    # significant digits: one past the last nonzero byte of s - "000..."
    bits = (s0 ^ _ASCII_ZEROS).astype(np.float64)
    bits += (s1 ^ _ASCII_ZEROS).astype(np.float64) * 2.0 ** 64
    bits += last * 2.0 ** 128
    nd = np.frexp(bits)[1]
    nd += 7
    nd >>= 3

    c = tables.cls.take(e10 - _E_LOW)
    u = c * 2
    u -= v.view(np.int64) >> 63  # + 1 where the sign bit is set
    end = tables.length.take(u * 18 + nd)
    # the point: digits before it stay, the rest move up one byte
    moved = (s0 << _U8, (s1 << _U8) | (s0 >> _U56), (s2 << _U8) | (s1 >> _U56))
    p = [(s & tables.below[w].take(c)) | (t & tables.above[w].take(c))
         | tables.dot[w].take(c)
         for w, (s, t) in enumerate(zip((s0, s1, s2), moved))]
    # the sign and "0.000" prefix: all words move up by its length
    shift, back = tables.shift.take(u), tables.back.take(u)
    cells = np.empty((m, _CELL // 8), _WORD)
    np.bitwise_or(p[0] << shift, tables.prefix.take(u), out=cells[:, 0])
    for w in (1, 2):
        np.bitwise_or(p[w] << shift, p[w - 1] >> back, out=cells[:, w])
    text = cells.view(np.uint8).reshape(-1)
    start = np.arange(0, m * _CELL, _CELL)

    sci = np.flatnonzero(c == _SCI)
    if sci.size:
        # "e+dd" / "e-dd", or three exponent digits from 100 on
        x = e10[sci]
        mag = np.abs(x)
        wide = mag >= 100
        exponent = tables.digits.take(mag) >> np.where(wide, _U8, _U16)
        sign = np.where(x < 0, np.uint64(ord("-")), np.uint64(ord("+")))
        suffix = np.uint64(ord("e")) | (sign << _U8) | (exponent << _U16)
        at = start[sci] + end[sci]
        suffix = suffix.astype(_WORD).view(np.uint8).reshape(-1, 8)
        text[at[:, None] + np.arange(5)] = suffix[:, :5]
        end[sci] += 4 + wide
    for i in np.flatnonzero(~ok):
        exact = fmt(v[i]).encode()
        text[start[i]:start[i] + len(exact)] = np.frombuffer(exact, np.uint8)
        end[i] = len(exact)
    # "," after each value, then "\n" after each row's last
    k = rows.shape[1]
    text[start + end] = ord(",")
    text[start[k - 1::k] + end[k - 1::k]] = ord("\n")
    end += 1
    return text[tables.keep.take(end, axis=0).view(np.bool_).reshape(-1)]


def write_metadata(path: SamplePath, csv_path,
                   params: Optional[ModelParams] = None,
                   extra: Optional[dict] = None) -> Path:
    """Write the JSON sidecar next to the CSV; returns its location."""
    meta = {
        "h": path.h,
        "n": len(path.values),
        "x0": path.x0,
        "seed": path.seed,
        "replication": path.replication,
        "burn_in": path.burn_in,
    }
    if params is not None:
        meta["params"] = asdict(params)
    if extra:
        meta.update(extra)
    out = metadata_path(csv_path)
    with out.open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def read_path_csv(csv_path) -> SamplePath:
    """Parse a two-column ``t,x`` CSV into a :class:`SamplePath`.

    Raises ``ValueError`` naming the first offending data row on ragged
    rows, blank lines, non-numeric or non-finite fields, bytes that are not
    UTF-8, or non-uniform spacing.
    """
    from ._csvparse import parse_csv  # compiled only where a CSV is read

    src = Path(csv_path)
    columns = parse_csv(src)
    if columns is None:
        columns = _parse_rows(src)
    t, x = columns
    if len(x) < 2:
        raise ValueError(f"{src}: need at least 2 data rows, got {len(x)}")
    _require_finite(t, "t", src)
    h = t[1] - t[0]
    if not h > 0:
        raise ValueError(f"{src}: row 2: non-increasing time column")
    deviation = np.diff(t)
    deviation -= h
    np.abs(deviation, out=deviation)
    # the writer's t_j = h j is off by up to eps |t_j| / 2, so on a long
    # path its spacing varies by a few ulps of the largest |t|, which an
    # evenly spaced column holds at one of its ends
    t_max = max(abs(t[0]), abs(t[-1]))
    tol = SPACING_RTOL * h + 4 * np.finfo(float).eps * t_max
    bad = np.flatnonzero(deviation > tol)
    if bad.size:
        # data row index of the first row breaking the spacing (1-based)
        row = int(bad[0]) + 2
        gap = t[row - 1] - t[row - 2]
        raise ValueError(
            f"{src}: row {row}: spacing {float(gap)!r} differs from "
            f"inferred h = {float(h)!r}"
        )
    del deviation  # freed before any contiguous copy of x
    _require_finite(x, "x", src)
    return SamplePath(h=float(h), values=np.ascontiguousarray(x))


def _parse_rows(src: Path) -> tuple:
    """Row-by-row parse of the ``t`` and ``x`` columns that names the
    first offending data row."""
    rows = []
    index = 0  # the 1-based data row being read; 0 on the first line
    try:
        with src.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{src}: empty file")
            index = 1
            if _is_numeric_row(header):
                rows.append(_parse_row(header, 1, src))
                index = 2
            for row in reader:
                rows.append(_parse_row(row, index, src))
                index += 1
    except UnicodeDecodeError:
        raise _undecodable(src) from None
    except csv.Error as exc:  # e.g. a field beyond csv's size limit
        where = f"row {index}" if index else "header row"
        raise ValueError(f"{src}: {where}: {exc}") from None
    table = np.array(rows, dtype=float).reshape(-1, 2)
    return table[:, 0], table[:, 1]


def _undecodable(src: Path) -> ValueError:
    """The error naming the row of the first byte that is not UTF-8."""
    numeric = False  # whether the first line is a data row
    with src.open("rb") as fh:
        for line_no, line in enumerate(fh):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                row = f"row {line_no + numeric}" if line_no else "header row"
                return ValueError(
                    f"{src}: {row}: byte 0x{line[exc.start]:02x} at offset "
                    f"{exc.start} of the line is not UTF-8")
            if line_no == 0:
                numeric = _is_numeric_row(next(csv.reader([text]), []))
    return ValueError(f"{src}: not UTF-8")


def _require_finite(column: np.ndarray, name: str, src: Path) -> None:
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        # data row index of the first non-finite entry (1-based)
        i = int(bad[0])
        raise ValueError(
            f"{src}: row {i + 1}: non-finite {name} = {float(column[i])!r}"
        )


def _is_numeric_row(row) -> bool:
    if len(row) != 2:
        return False
    try:
        float(row[0]), float(row[1])
        return True
    except ValueError:
        return False


def _parse_row(row, index: int, src: Path) -> tuple:
    if len(row) != 2:
        raise ValueError(f"{src}: row {index}: expected 2 columns, got {len(row)}")
    try:
        return float(row[0]), float(row[1])
    except ValueError:
        raise ValueError(f"{src}: row {index}: non-numeric field {row!r}") from None
