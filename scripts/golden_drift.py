#!/usr/bin/env python3
"""How far the CLI outputs have drifted from the golden files.

Re-runs the commands of ``tests/test_golden.py`` (its ``RUNS``) in a fresh
directory and compares every file they write with ``tests/golden/``.  A
byte-identical file is reported as such.  Otherwise every number of a JSON
or CSV file is compared: for each field (a JSON key path, list indices
dropped, or a CSV column) the script prints the largest change over the
field's largest golden magnitude, ``max |new - old| / max |old|``, which
for a scalar field is its relative change.  Any other difference (a
string, a key, a shape, a header, the standard output) is printed as a
mismatch; a field that only one of the two files holds is named, and the
fields both hold are still compared.

Exits 1 on a mismatch or when some field moved by more than ``--rtol``
(default 0: any numeric change fails).  ``--out DIR`` keeps the fresh
outputs in DIR, e.g. to re-capture a golden file after checking its drift.

    PYTHONPATH=src python scripts/golden_drift.py --rtol 1e-12
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_golden import GOLDEN, RUNS  # noqa: E402

from dexpou.cli import main  # noqa: E402


def _leaves(value, key=""):
    """(field, value) for every scalar of a parsed JSON document."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, key)
    else:
        yield key, value


def _csv_leaves(text):
    """(column, cell) for every cell of a CSV file with a header row."""
    rows = list(csv.reader(io.StringIO(text)))
    yield "header", tuple(rows[0])
    for row in rows[1:]:
        for name, cell in itertools.zip_longest(rows[0], row):
            try:
                yield name, float(cell)
            except (TypeError, ValueError):   # a text or a missing cell
                yield name, cell


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _by_field(leaves):
    """Values of each field, in file order."""
    fields = {}
    for field, value in leaves:
        fields.setdefault(field, []).append(value)
    return fields


def compare(name, new_text, old_text):
    """Per-field drift ``{field: change}`` and the list of mismatches.

    Fields present in only one file are mismatches; the fields both files
    hold are still compared."""
    if name.endswith(".json"):
        new, old = (_by_field(_leaves(json.loads(t)))
                    for t in (new_text, old_text))
    else:
        new, old = (_by_field(_csv_leaves(t)) for t in (new_text, old_text))
    mismatches = ([f"{f}: only in the new file" for f in new if f not in old]
                  + [f"{f}: only in the golden file" for f in old
                     if f not in new])
    diff, scale = {}, {}
    for field in (f for f in old if f in new):
        if len(new[field]) != len(old[field]):
            mismatches.append(f"{field}: {len(new[field])} values, "
                              f"golden {len(old[field])}")
            continue
        for a, b in zip(new[field], old[field]):
            if _is_number(a) and _is_number(b):
                if a == b or (math.isnan(a) and math.isnan(b)):
                    d = 0.0
                elif math.isfinite(a) and math.isfinite(b):
                    d = abs(a - b)
                else:
                    d = math.inf
                diff[field] = max(diff.get(field, 0.0), d)
                if math.isfinite(b):
                    scale[field] = max(scale.get(field, 0.0), abs(b))
            elif a != b:
                mismatches.append(f"{field}: {a!r} != {b!r}")
    drift = {}
    for field, d in diff.items():
        s = scale.get(field, 0.0)
        drift[field] = 0.0 if d == 0 else (d / s if s > 0 else math.inf)
    return drift, mismatches


def run_all(workdir):
    """Run every golden command in ``workdir``; mismatched stdout lines."""
    mismatches = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, _, stdout in RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0 or out.getvalue() != stdout:
                mismatches.append(f"{' '.join(argv)}: exit {code}, "
                                  f"stdout {out.getvalue()!r}")
    finally:
        os.chdir(cwd)
    return mismatches


def main_drift(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="largest field drift accepted (default 0)")
    ap.add_argument("--out", type=Path, default=None,
                    help="keep the fresh outputs in this directory")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.out or Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        failed = False
        for line in run_all(workdir):
            print(f"MISMATCH {line}")
            failed = True
        for name in sorted({n for _, files, _ in RUNS for n in files}):
            new_text = (workdir / name).read_text()
            old_text = (GOLDEN / name).read_text()
            if new_text == old_text:
                print(f"{name}: byte-identical")
                continue
            drift, mismatches = compare(name, new_text, old_text)
            print(f"{name}: differs")
            for line in mismatches:
                print(f"  MISMATCH {line}")
            for field, d in sorted(drift.items()):
                if d > 0:
                    print(f"  {field}: {d:.3g}")
            failed |= bool(mismatches) or any(d > args.rtol
                                              for d in drift.values())
    print(f"largest accepted drift {args.rtol:g}: "
          f"{'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_drift())
