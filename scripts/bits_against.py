#!/usr/bin/env python3
"""Compare this tree's outputs with another checkout's, bit for bit.

Runs the seed-99 probe set in two subprocesses, one with ``PYTHONPATH`` at
this tree's ``src`` and one at ``DIR/src``, through the same code: the
paths of both points of acceptance criterion 6 at n = 300, 3e3 and 1e4,
replications 0 to ``--reps`` - 1, each fitted by the public calls
(``estimate_all``, ``covariance_estimate``, ``confidence_intervals`` at
0.95).  For every case it records the path, the moments, the estimates,
``A``, ``Sigma``, the intervals and their warnings, the value read from
``jacobian_condition``, and the class and stage of an ``EstimationError``
if one is raised; every float is written with ``float.hex``, so one ulp
shows.  Prints the first case that differs and exits 1; exits 0 when
every case matches.

    PYTHONPATH=src python scripts/bits_against.py ../parent --reps 150
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The two points of acceptance criterion 6, as ((theta, eta, phi, p), h);
# restated here because the other tree's package cannot be relied on to
# import this tree's tests.
POINTS = (((2.0, 1.2, 1.6, 0.6), 0.02), ((0.5, 2.5, 0.8, 0.3), 0.1))
SIZES = (300, 3_000, 10_000)
SEED = 99


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _case(dx, params, h, n, rep) -> dict:
    """The record of one probe: every output the fit makes, in hex."""
    path = dx.simulate_path(params, 0.0, h, n, seed=SEED, replication=rep)
    m = dx.empirical_moments(path)
    record = {
        "path": hashlib.sha256(path.values.tobytes()).hexdigest(),
        "moments": _hex([m.mu1, m.mu2, m.mu3, m.mu4]),
    }
    try:
        result = dx.estimate_all(path)
        record["estimates"] = {k: float(v).hex() for k, v
                               in result.estimates_dict().items()}
        cov = dx.covariance_estimate(path, result)
        record["A"] = _hex(cov.A.ravel().tolist())
        record["Sigma"] = _hex(cov.Sigma.ravel().tolist())
        record["jacobian_condition"] = float(cov.jacobian_condition).hex()
        ci = dx.confidence_intervals(result, cov, level=0.95)
        record["intervals"] = {k: _hex(v) for k, v in ci.intervals.items()}
        record["warnings"] = list(ci.warnings)
    except dx.errors.EstimationError as exc:
        record["error"] = [type(exc).__name__, exc.stage]
    return record


def emit(reps: int, out=sys.stdout) -> None:
    """Write one JSON line per probe, with the ``dexpou`` on the path."""
    import dexpou

    for point, ((theta, eta, phi, p), h) in enumerate(POINTS):
        params = dexpou.ModelParams(theta=theta, eta=eta, phi=phi, p=p)
        for n in SIZES:
            for rep in range(reps):
                record = {"case": [point, n, rep]}
                record.update(_case(dexpou, params, h, n, rep))
                out.write(json.dumps(record) + "\n")


def records(tree: Path, reps: int) -> list:
    """The records of the tree at ``tree``, made in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    done = subprocess.run(
        [sys.executable, __file__, str(tree), "--reps", str(reps), "--emit"],
        env=env, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"error: the probe set failed on {tree}:\n"
                         f"{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def _first_entry(name, mine, other):
    """``name``, with the first index or key at which the two differ."""
    if isinstance(mine, list) and isinstance(other, list):
        for i, (a, b) in enumerate(zip(mine, other)):
            if a != b:
                return _first_entry(f"{name}[{i}]", a, b)
    if isinstance(mine, dict) and isinstance(other, dict):
        for key in dict.fromkeys([*mine, *other]):
            if mine.get(key) != other.get(key):
                return _first_entry(f"{name}[{key!r}]", mine.get(key),
                                    other.get(key))
    return f"{name} is {mine!r} here and {other!r} there"


def first_difference(ours: list, theirs: list):
    """A line naming the first case whose records differ, and how, or
    None when both lists match."""
    for mine, other in zip(ours, theirs):
        if mine == other:
            continue
        # in the order the records were made, so the first is the earliest
        diff = [k for k in dict.fromkeys([*mine, *other])
                if mine.get(k) != other.get(k)]
        point, n, rep = mine["case"]
        also = f" ({', '.join(diff[1:])} differ too)" if diff[1:] else ""
        return (f"point {point}, n = {n}, replication {rep}: "
                f"{_first_entry(diff[0], mine.get(diff[0]), other.get(diff[0]))}"
                f"{also}")
    if len(ours) != len(theirs):
        return f"{len(ours)} cases here, {len(theirs)} there"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path,
                        help="root of the checkout to compare with")
    parser.add_argument("--reps", type=int, default=20,
                        help="replications 0 to REPS - 1 per point and n")
    parser.add_argument("--emit", action="store_true",
                        help="print the records of the dexpou on PYTHONPATH "
                             "instead of comparing")
    args = parser.parse_args(argv)
    if args.reps < 0:
        parser.error("--reps must be >= 0")
    if args.emit:
        emit(args.reps)
        return 0

    ours, theirs = records(ROOT, args.reps), records(args.dir, args.reps)
    problem = first_difference(ours, theirs)
    if problem:
        print(f"differs from {args.dir}: {problem}", file=sys.stderr)
        return 1
    print(f"{len(ours)} cases match {args.dir} bit for bit "
          f"(seed {SEED}, n in {SIZES}, replications 0..{args.reps - 1})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
