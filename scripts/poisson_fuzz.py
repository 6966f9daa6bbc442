#!/usr/bin/env python3
"""Differential fuzz of the simulator's jump sums against their first
composition from ``rng.poisson`` counts.

Draws ``--draws`` cases ``(lam h, size, seed)`` from ``--seed``.  The rates
lie below the switch from the bulk-uniform replay of the counts to
``rng.poisson`` (a third, log-uniform from 1e-6), within a few ulp of it (a
sixth), above it up to 10 (a third) and from 10 to 40, where numpy samples
by another method (a sixth).  The sizes are 0 to 3 in a quarter of the
cases and log-uniform up to 20,000 in the rest.  ``draw_transition_jump_sum``
must give ``tests/oracles.composed_jump_sums``'s bits, and the generator's
next output after it must be the same.  Exits 1 naming the first
mismatching case, 0 when every case matches.

    PYTHONPATH=src python scripts/poisson_fuzz.py --draws 3000 --seed 1
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import composed_jump_sums  # noqa: E402

from dexpou import ModelParams, draw_transition_jump_sum, make_rng  # noqa: E402
from dexpou import simulate  # noqa: E402


def _cases(rng, count):
    """``count`` random ``(params, h, size, seed)`` cases."""
    switch = simulate._REPLAY_MAX_RATE
    for _ in range(count):
        kind = rng.random()
        if kind < 1 / 3:
            rate = 10.0 ** rng.uniform(-6, math.log10(switch))
        elif kind < 1 / 2:
            rate = switch
            for _ in range(int(rng.integers(-3, 4))):
                rate = math.nextafter(rate, 0.0)
            for _ in range(int(rng.integers(-3, 4))):
                rate = math.nextafter(rate, 1.0)
        elif kind < 5 / 6:
            rate = rng.uniform(switch, 10.0)
        else:
            rate = rng.uniform(10.0, 40.0)
        if rng.random() < 0.25:
            size = int(rng.integers(0, 4))
        else:
            size = int(10.0 ** rng.uniform(0, math.log10(20_000)))
        # a spacing h of 2^-k, so that lam h == rate exactly
        h = 2.0 ** -int(rng.integers(0, 7))
        params = ModelParams(theta=float(rng.uniform(0.1, 5.0)),
                             eta=float(rng.uniform(0.2, 5.0)),
                             phi=float(rng.uniform(0.2, 5.0)),
                             p=float(rng.uniform(0.01, 0.99)), lam=rate / h)
        yield params, h, size, int(rng.integers(0, 2**32))


def _mismatch(params, h, size, seed):
    """Why the jump sums or the stream after them differ, or None."""
    rng = make_rng(seed)
    expect, _ = composed_jump_sums(params, h, rng, size)
    after = make_rng(seed)
    got = draw_transition_jump_sum(params, h, after, size=size)
    if got.tobytes() != expect.tobytes():
        return "jump sums differ"
    if after.random() != rng.random():
        return "the generator's next output differs"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=3_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.draws < 0:
        parser.error("--draws must be >= 0")

    replayed = 0
    for params, h, size, seed in _cases(np.random.default_rng(args.seed),
                                        args.draws):
        problem = _mismatch(params, h, size, seed)
        if problem:
            print(f"{problem}: lam h = {params.lam * h!r}, size {size}, "
                  f"seed {seed}", file=sys.stderr)
            return 1
        replayed += params.lam * h < simulate._REPLAY_MAX_RATE
    print(f"{args.draws} cases ({replayed} below the switch at lam h = "
          f"{simulate._REPLAY_MAX_RATE!r}) match the rng.poisson composition "
          f"and leave the stream in place (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
