#!/usr/bin/env python3
"""Differential fuzz of the CSV writer's %.17g kernel against Python.

Draws ``--values`` float64 values from ``--seed``, a third each from three
sources: random 64-bit patterns (subnormals, NaN and infinities included),
standard normals, and normals scaled by ``10^u`` with ``u`` uniform on
[-14, 14] (28 decades).  Each chunk goes through the kernel of
``dexpou.pathio`` as a one-column CSV block and is compared byte for byte
with ``"%.17g\\n" % v`` per value.  Exits 1 naming the first mismatching
value, 0 when every value matches.

    PYTHONPATH=src python scripts/fmt_fuzz.py --values 2000000 --seed 1
"""

import argparse
import sys

import numpy as np

from dexpou.pathio import _format_rows

CHUNK = 1 << 16


def _sources(rng, count):
    """Chunks of at most CHUNK values, ``count`` in all."""
    kinds = (
        lambda k: rng.integers(0, 2**64, k, dtype=np.uint64).view(np.float64),
        lambda k: rng.standard_normal(k),
        lambda k: rng.standard_normal(k) * 10.0 ** rng.uniform(-14, 14, k),
    )
    for i, draw in enumerate(kinds):
        left = count // 3 + (i < count % 3)
        while left:
            k = min(left, CHUNK)
            yield draw(k)
            left -= k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.values < 0:
        parser.error("--values must be >= 0")

    rng = np.random.default_rng(args.seed)
    checked = 0
    for chunk in _sources(rng, args.values):
        got = _format_rows(chunk[:, None]).tobytes().decode()
        expected = ("%.17g\n" * len(chunk)) % tuple(chunk.tolist())
        if got != expected:
            pairs = zip(chunk, got.split("\n"), expected.split("\n"))
            for value, mine, ref in pairs:
                if mine != ref:
                    print(f"mismatch at {float(value).hex()} ({ref}): "
                          f"kernel wrote {mine!r}", file=sys.stderr)
                    return 1
        checked += len(chunk)
    print(f"{checked} values match %.17g (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
