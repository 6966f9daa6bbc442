"""CSV path export/ingestion and JSON metadata sidecars.

Export format: header ``t,x``, one row per retained observation at
``t_j = j h``, all numbers with 17 significant digits.  A JSON sidecar
(``<stem>.meta.json``) records parameters, seed, spacing, length, and
burn-in, so a simulation run is fully reproducible from its outputs.

Ingestion accepts any two-column ``t,x`` CSV with constant spacing; the
spacing is inferred from the first two rows and enforced afterwards with
tolerance ``1e-9 * h``.  Non-finite values and non-uniform spacing are
rejected naming the first offending data row.
"""

from __future__ import annotations

import csv
import json
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
    out = Path(csv_path)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x"])
        for t, x in zip(path.times, path.values):
            writer.writerow([fmt(t), fmt(x)])
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
    rows, non-numeric or non-finite fields, or non-uniform spacing.
    """
    src = Path(csv_path)
    times = []
    values = []
    with src.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{src}: empty file")
        # row indices below are 1-based data rows (the header is not counted)
        start = 1
        if _is_numeric_row(header):
            _append_row(header, 1, times, values, src)
            start = 2
        for i, row in enumerate(reader, start=start):
            _append_row(row, i, times, values, src)
    if len(values) < 2:
        raise ValueError(f"{src}: need at least 2 data rows, got {len(values)}")
    t = np.array(times)
    _require_finite(t, "t", src)
    h = t[1] - t[0]
    if not h > 0:
        raise ValueError(f"{src}: row 2: non-increasing time column")
    gaps = np.diff(t)
    bad = np.flatnonzero(np.abs(gaps - h) > SPACING_RTOL * h)
    if bad.size:
        # data row index of the first row breaking the spacing (1-based)
        row = int(bad[0]) + 2
        raise ValueError(
            f"{src}: row {row}: spacing {float(gaps[bad[0]])!r} differs from "
            f"inferred h = {float(h)!r}"
        )
    x = np.array(values)
    _require_finite(x, "x", src)
    return SamplePath(h=float(h), values=x)


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


def _append_row(row, index: int, times: list, values: list, src: Path) -> None:
    if len(row) != 2:
        raise ValueError(f"{src}: row {index}: expected 2 columns, got {len(row)}")
    try:
        times.append(float(row[0]))
        values.append(float(row[1]))
    except ValueError:
        raise ValueError(f"{src}: row {index}: non-numeric field {row!r}") from None
