#!/usr/bin/env python3
"""List the replications of the benchmark's ``mc_short`` workload that fail.

Replication ``i`` of ``mc_short`` at seed ``S`` is the op ``i`` of
``perfbench/run.py``'s ``MonteCarlo`` workload: this imports that workload,
with its reference point, spacing, fit and check, and runs its ops 0 to
the largest ``--upto`` - 1 at ``--n`` points (by default the benchmark's
full size).  It prints one line per op that the benchmark counts as
failed: its index, and either the class of the ``EstimationError`` it
raises and the stage that error names, or ``check`` and the first problem
the check found.  The last lines count them, with their share, below each
``--upto`` in turn, so a run's ``failed`` equals the count at its
``attempted``: give one count per run, for example the ``attempted`` of a
parent's run and of a change's run at the same seed.  The package comes
from ``PYTHONPATH``, so one checkout's script can list another tree's
failures.

    PYTHONPATH=src python scripts/failing_replications.py --seed 3005 --upto 6000 7000
"""

import argparse
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

from dexpou.errors import EstimationError  # noqa: E402

FULL_N = run.SIZES["full"]["mc_short"]


def failures(seed: int, replications, n: int = FULL_N):
    """Yield ``(replication, error class name or "check", stage or
    problem)`` for each of ``replications`` whose ``mc_short`` op fails."""
    dx = argparse.Namespace(
        **{m: importlib.import_module("dexpou." + m) for m in run.MODULES})
    workload = run.MonteCarlo(dx, seed, n)
    for i in replications:
        try:
            out = workload.op(i)
        except EstimationError as exc:
            yield i, type(exc).__name__, exc.stage
            continue
        problems = workload.check(i, out)
        if problems:
            yield i, "check", problems[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--upto", type=int, nargs="+", required=True,
                        help="refit replications 0 to UPTO - 1; with several "
                             "counts, up to the largest, counting below each")
    parser.add_argument("--n", type=int, default=FULL_N)
    args = parser.parse_args(argv)
    if min(args.upto) < 0:
        parser.error("--upto must be >= 0")

    failed = []
    for i, name, where in failures(args.seed, range(max(args.upto)), args.n):
        how = (f"check failed: {where}" if name == "check"
               else f"{name} at {where}")
        print(f"seed {args.seed} replication {i}: {how}", flush=True)
        failed.append(i)
    for upto in args.upto:
        count = sum(i < upto for i in failed)
        share = count / upto if upto else 0.0
        print(f"{count} of {upto} replications failed, a share of "
              f"{share:.3g} (seed {args.seed}, n = {args.n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
