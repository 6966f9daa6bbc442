"""CSV path export/ingestion and JSON metadata sidecars.

Export format: header ``t,x``, one row per retained observation at
``t_j = j h``, all numbers with 17 significant digits.  Rows are formatted
a block of a few thousand at a time with one ``%`` operation per block,
byte-identical to :func:`fmt` per value.  A JSON sidecar
(``<stem>.meta.json``) records parameters, seed, spacing, length, and
burn-in, so a simulation run is fully reproducible from its outputs.

Ingestion accepts any two-column ``t,x`` CSV with constant spacing; the
spacing is inferred from the first two rows and enforced afterwards with
tolerance ``1e-9 * h``.  The file is parsed by one ``numpy.loadtxt`` call;
only when that parse fails, or its row count differs from the file's
data-line count, does a row-by-row parser read the file again, so that
ragged rows, blank lines and non-numeric fields are rejected naming the
first offending data row.  Non-finite values and non-uniform spacing are
rejected the same way.
"""

from __future__ import annotations

import csv
import json
import warnings
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
    return _write_float_csv(csv_path, ("t", "x"), (path.times, path.values))


# rows per formatting block: large enough to amortise the per-block
# overhead, small enough that the block's text stays a few hundred kB
_BLOCK_ROWS = 4096


def _write_float_csv(csv_path, header, columns) -> Path:
    """Write equal-length float columns under ``header``, each value as :func:`fmt`."""
    out = Path(csv_path)
    n = len(columns[0])
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with out.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        block = np.empty((min(n, _BLOCK_ROWS), len(columns)))
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            rows = block[:stop - start]
            for j, column in enumerate(columns):
                rows[:, j] = column[start:stop]
            fh.write((row_fmt * len(rows)) % tuple(rows.ravel().tolist()))
    return out


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
        meta["params"] = params.as_dict()
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
    rows, blank lines, non-numeric or non-finite fields, or non-uniform
    spacing.
    """
    src = Path(csv_path)
    table = _parse_table(src)
    if table is None:
        table = _parse_rows(src)
    t, x = table[:, 0], table[:, 1]
    if len(x) < 2:
        raise ValueError(f"{src}: need at least 2 data rows, got {len(x)}")
    _require_finite(t, "t", src)
    h = t[1] - t[0]
    if not h > 0:
        raise ValueError(f"{src}: row 2: non-increasing time column")
    gaps = np.diff(t)
    deviation = gaps - h
    np.abs(deviation, out=deviation)
    bad = np.flatnonzero(deviation > SPACING_RTOL * h)
    if bad.size:
        # data row index of the first row breaking the spacing (1-based)
        row = int(bad[0]) + 2
        raise ValueError(
            f"{src}: row {row}: spacing {float(gaps[bad[0]])!r} differs from "
            f"inferred h = {float(h)!r}"
        )
    del gaps, deviation  # freed before the contiguous copy of x
    _require_finite(x, "x", src)
    return SamplePath(h=float(h), values=np.ascontiguousarray(x))


def _parse_table(src: Path) -> Optional[np.ndarray]:
    """The ``(rows, 2)`` data table from one numpy parse, or None.

    None means the row-by-row parser must decide: the parse raised, gave
    another shape, or silently skipped lines (``loadtxt`` drops blank
    ones, which are an error here).
    """
    lines = _count_lines(src)
    with src.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is not None and _is_numeric_row(header):
            fh.seek(0)
        else:
            lines -= 1
        if lines < 2:
            return None
        try:
            with warnings.catch_warnings():
                # input with only blank lines left: the shape check below
                # sends it to the row parser, which names the row
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None,
                                   quotechar='"', ndmin=2)
        except ValueError:
            return None
    return table if table.shape == (lines, 2) else None


def _count_lines(src: Path) -> int:
    """Newline-terminated lines, plus a final unterminated one."""
    count, last = 0, b"\n"
    with src.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            count += chunk.count(b"\n")
            last = chunk[-1:]
    return count + (last != b"\n")


def _parse_rows(src: Path) -> np.ndarray:
    """Row-by-row parse that names the first offending data row."""
    rows = []
    with src.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{src}: empty file")
        # row indices below are 1-based data rows (the header is not counted)
        start = 1
        if _is_numeric_row(header):
            rows.append(_parse_row(header, 1, src))
            start = 2
        for i, row in enumerate(reader, start=start):
            rows.append(_parse_row(row, i, src))
    return np.array(rows, dtype=float).reshape(-1, 2)


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
