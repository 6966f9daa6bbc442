#!/usr/bin/env python3
"""Differential fuzz of the CSV kernels of ``dexpou.pathio`` against Python,
in both directions.

Draws ``--values`` float64 values from ``--seed``, a third each from three
sources: random 64-bit patterns (subnormals, NaN and infinities included),
standard normals, and normals scaled by ``10^u`` with ``u`` uniform on
[-14, 14] (28 decades).  Each chunk goes through the writer's kernel as a
two-column CSV block and is compared byte for byte with ``"%.17g"`` per
value; the reader's kernel must then give every value's bits back (NaN as
NaN).  Last, ``--values / 4`` random decimal strings, each of 1 to 20
digits with a random point, sign and exponent, a sixth of them exact
midpoints between neighbouring doubles or one unit off one, must read as
``float(token)`` reads them.  Exits 1 naming the first mismatching value
or token, 0 when every one matches.

    PYTHONPATH=src python scripts/fmt_fuzz.py --values 2000000 --seed 1
"""

import argparse
import sys
from decimal import Decimal

import numpy as np

from dexpou._csvparse import parse_lines
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


def _decimal_strings(rng, count):
    """``count`` random decimal strings, as bytes."""
    tokens = []
    for _ in range(count):
        if rng.random() < 1 / 6:
            # a midpoint of two doubles of 2^50 to 2^64, exact in at most
            # 20 digits, or that midpoint's last digit off by one
            low = float(rng.integers(2**50, 2**63)) * 2.0 ** rng.integers(0, 2)
            tie = (Decimal(low) + Decimal(np.nextafter(low, np.inf))) / 2
            _, digits, exponent = tie.as_tuple()
            text = "".join(map(str, digits))
            text = str(int(text) + int(rng.integers(-1, 2))).zfill(len(text))
        else:
            text = "".join(map(str, rng.integers(0, 10, rng.integers(1, 21))))
            exponent = 0
        point = int(rng.integers(0, len(text) + 1))
        if rng.random() < 0.5 and point < len(text):
            # a point inside the digits, the exponent moved to keep the value
            exponent += len(text) - point
            text = text[:point] + "." + text[point:]
        if rng.random() < 0.5:
            exponent += int(rng.integers(-330, 331)) if rng.random() < 0.2 \
                else int(rng.integers(-25, 26))
        if exponent:
            sign = "+" if exponent > 0 and rng.random() < 0.5 else ""
            text += f"{'eE'[rng.integers(0, 2)]}{sign}{exponent}"
        tokens.append(("-" if rng.random() < 0.5 else "") + text)
    return [t.encode() for t in tokens]


def _check_tokens(tokens):
    """Why the reader's kernel reads ``tokens`` otherwise than ``float``
    does, or None."""
    tokens = tokens + tokens[:len(tokens) % 2]
    block = b"".join(a + b"," + b + b"\n"
                     for a, b in zip(tokens[::2], tokens[1::2]))
    got = parse_lines(block)
    if got is None:
        return "the kernel rejected a block of valid decimal strings"
    expected = np.array([float(t) for t in tokens])
    bad = np.flatnonzero(got.reshape(-1).view(np.int64)
                         != expected.view(np.int64))
    if bad.size:
        return (f"token {tokens[bad[0]].decode()!r} read as "
                f"{got.reshape(-1)[bad[0]]!r}, float() gives "
                f"{expected[bad[0]]!r}")
    return None


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
        rows = np.resize(chunk, (len(chunk) + 1) // 2 * 2).reshape(-1, 2)
        text = _format_rows(rows).tobytes()
        expected = ("%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
        if text.decode() != expected:
            pairs = zip(rows.ravel(), text.decode().replace("\n", ",").split(","),
                        expected.replace("\n", ",").split(","))
            for value, mine, ref in pairs:
                if mine != ref:
                    print(f"mismatch at {float(value).hex()} ({ref}): "
                          f"kernel wrote {mine!r}", file=sys.stderr)
                    return 1
        back = parse_lines(text)
        if back is None:
            print("the reader's kernel rejected the writer's text",
                  file=sys.stderr)
            return 1
        back = back.reshape(-1)
        same = back.view(np.int64) == rows.reshape(-1).view(np.int64)
        same |= np.isnan(back) & np.isnan(rows.reshape(-1))
        if not same.all():
            value = rows.reshape(-1)[np.flatnonzero(~same)[0]]
            print(f"reading back {float(value).hex()} ({value!r}) gave "
                  f"{back[np.flatnonzero(~same)[0]]!r}", file=sys.stderr)
            return 1
        checked += len(chunk)
    print(f"{checked} values match %.17g and read back (seed {args.seed})")

    strings = 0
    for start in range(0, args.values // 4, CHUNK):
        tokens = _decimal_strings(rng, min(CHUNK, args.values // 4 - start))
        problem = _check_tokens(tokens)
        if problem:
            print(problem, file=sys.stderr)
            return 1
        strings += len(tokens)
    print(f"{strings} decimal strings read as float() reads them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
