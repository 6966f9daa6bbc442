"""CSV export/ingestion round trips and spacing enforcement."""

import json
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from dexpou import (
    SamplePath,
    read_path_csv,
    simulate_path,
    write_metadata,
    write_path_csv,
)
from dexpou.pathio import _write_float_csv, fmt, metadata_path

from conftest import H_REF


def test_fmt_roundtrips_float64():
    rng = np.random.default_rng(1)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200):
        assert float(fmt(x)) == x


def test_write_read_roundtrip(tmp_path, ref_params):
    path = simulate_path(ref_params, 0.0, H_REF, 500, seed=30)
    out = tmp_path / "path.csv"
    write_path_csv(path, out)
    back = read_path_csv(out)
    assert back.h == H_REF
    assert np.array_equal(back.values, path.values)


def test_header_and_row_count(tmp_path, ref_params):
    path = simulate_path(ref_params, 0.0, H_REF, 40, seed=31)
    out = tmp_path / "p.csv"
    write_path_csv(path, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 41
    assert lines[1].startswith(fmt(H_REF) + ",")


def test_metadata_sidecar(tmp_path, ref_params):
    path = simulate_path(ref_params, 0.5, H_REF, 40, seed=32)
    out = tmp_path / "p.csv"
    write_path_csv(path, out)
    meta_file = write_metadata(path, out, ref_params)
    assert meta_file == metadata_path(out) == tmp_path / "p.meta.json"
    meta = json.loads(meta_file.read_text())
    assert meta["seed"] == 32
    assert meta["n"] == 40
    assert meta["burn_in"] == 250
    assert meta["params"]["eta"] == 1.2


def test_headerless_numeric_csv_accepted(tmp_path):
    src = tmp_path / "raw.csv"
    src.write_text("0.5,1.0\n1.0,2.0\n1.5,0.5\n")
    path = read_path_csv(src)
    assert path.h == 0.5
    assert path.values.tolist() == [1.0, 2.0, 0.5]


def test_nonuniform_spacing_names_first_bad_row(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("t,x\n0.02,1.0\n0.04,2.0\n0.08,3.0\n0.10,4.0\n")
    with pytest.raises(ValueError, match="row 3"):
        read_path_csv(src)


@pytest.mark.parametrize("rows, bad_row", [
    ("0.02,1.0\n0.04,2.0\nnan,3.0\n0.08,4.0\n", 3),   # nan t
    ("0.02,1.0\n0.04,nan\n0.06,3.0\n0.08,4.0\n", 2),  # nan x
    ("0.02,1.0\n0.04,2.0\n0.06,3.0\n0.08,inf\n", 4),  # inf x
], ids=["nan-t", "nan-x", "inf-x"])
def test_non_finite_rejected_naming_row(tmp_path, rows, bad_row):
    src = tmp_path / "nonfinite.csv"
    src.write_text("t,x\n" + rows)
    with pytest.raises(ValueError, match=f"row {bad_row}: non-finite"):
        read_path_csv(src)


def test_ragged_row_rejected(tmp_path):
    src = tmp_path / "ragged.csv"
    src.write_text("t,x\n0.02,1.0\n0.04\n")
    with pytest.raises(ValueError, match="row 2"):
        read_path_csv(src)


def test_non_numeric_rejected(tmp_path):
    src = tmp_path / "nan.csv"
    src.write_text("t,x\n0.02,1.0\n0.04,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        read_path_csv(src)


def test_too_few_rows_rejected(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text("t,x\n0.02,1.0\n")
    with pytest.raises(ValueError, match="2 data rows"):
        read_path_csv(src)


def test_empty_file_rejected(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_path_csv(src)


_ROWS = "0.02,1\n0.04,2\n0.06,3\n"


@pytest.mark.parametrize("text, outcome", [
    # rejected, naming the row (a str is the expected message fragment)
    ("t,x\n" + _ROWS + "\n", "row 4: expected 2 columns, got 0"),
    ("t,x\n0.02,1\n\n0.04,2\n0.06,3\n", "row 2: expected 2 columns, got 0"),
    ("t,x\n0.02,1\n#c\n0.04,2\n0.06,3\n", "row 2: expected 2 columns, got 1"),
    ("t,x\n0.02,1,\n0.04,2,\n0.06,3,\n", "row 1: expected 2 columns, got 3"),
    ("t,x\n0.02,\n0.04,2\n0.06,3\n", "row 1: non-numeric field"),
    ("t,x\n0x1p0,1\n0.04,2\n0.06,3\n", "row 1: non-numeric field"),
    ("t,x\n0.02,Infinity\n0.04,2\n0.06,3\n", "row 1: non-finite x"),
    ("t,x\n0.02,1\n0.04,1e400\n0.06,3\n", "row 2: non-finite x = inf"),
    (b"t,x\xe9\n" + _ROWS.encode(), "header row: byte 0xe9 .* not UTF-8"),
    (b"t,x\n0.02,1\n0.04,2\xe9\n0.06,3\n", "row 2: byte 0xe9 .* not UTF-8"),
    ("t,x\n0.02,1\n0.04,1.2.5\n0.06,3\n", "row 2: non-numeric field"),
    ("t,x\n0.02,1\n0.04,2-5\n0.06,3\n", "row 2: non-numeric field"),
    ("t,x\n0.02,1\n0.04,1e5e3\n0.06,3\n", "row 2: non-numeric field"),
    ("t,x\n0.02,1\n0.04,--2\n0.06,3\n", "row 2: non-numeric field"),
    ("t,x\n0.02,1\n0.04,2e\n0.06,3\n", "row 2: non-numeric field"),
    ("t,x\n0.02,1\n0.04,.\n0.06,3\n", "row 2: non-numeric field"),
    ("t,x\n0.02,1\n0.04," + " " * 300_000 + "2\n0.06,3\n",
     r"row 2: field larger than field limit \(131072\)"),
    ("t,x\n0.04,1\n0.02,2\n0.06,3\n", "row 2: non-increasing time column"),
    ("0.02,1\n\n0.04,2\n0.06,3\n", "row 2: expected 2 columns, got 0"),
    # accepted (a list is the expected x)
    ('"t","x"\n"0.02","1"\n"0.04","2"\n"0.06","3"\n', [1.0, 2.0, 3.0]),
    ("t,x\n 0.02 , 1 \n 0.04 , 2 \n 0.06 , 3 \n", [1.0, 2.0, 3.0]),
    (("t,x\n" + _ROWS).replace("\n", "\r\n"), [1.0, 2.0, 3.0]),
    ("t,x\n" + _ROWS.rstrip("\n"), [1.0, 2.0, 3.0]),
    ("t\n" + _ROWS, [1.0, 2.0, 3.0]),
    ("\ufefft,x\n" + _ROWS, [1.0, 2.0, 3.0]),
    (_ROWS, [1.0, 2.0, 3.0]),
    ("t,x\n0.02,1_0\n0.04,2\n0.06,3\n", [10.0, 2.0, 3.0]),
], ids=["trailing-blank", "blank-mid", "hash-line", "trailing-comma",
        "empty-field", "hex-float", "infinity", "overflow",
        "undecodable-header", "undecodable-row", "two-points", "inner-minus",
        "two-exponents", "two-minus", "no-exponent-digits", "point-alone",
        "field-limit", "time-decreasing", "headerless-blank",
        "quoted", "spaces", "crlf",
        "no-final-newline", "one-column-header", "bom", "headerless",
        "underscore"])
def test_reader_outcomes(tmp_path, text, outcome):
    src = tmp_path / "in.csv"
    src.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            read_path_csv(src)
    else:
        path = read_path_csv(src)
        assert path.h == 0.02
        assert path.values.tolist() == outcome


def _x_column_csv(tokens, final_newline=True) -> bytes:
    """A path CSV holding ``tokens`` as its x column, t = 0.5 j."""
    text = "t,x\n" + "".join(f"{0.5 * j!r},{token}\n"
                             for j, token in enumerate(tokens, 1))
    return (text if final_newline else text[:-1]).encode()


def _assert_read_as_float(tmp_path, tokens, final_newline=True):
    src = tmp_path / "tokens.csv"
    src.write_bytes(_x_column_csv(tokens, final_newline))
    got = read_path_csv(src)
    assert got.h == 0.5
    expected = np.array([float(token) for token in tokens])
    for token, a, b in zip(tokens, got.values, expected):
        assert a.tobytes() == b.tobytes(), (token, a, b)


def _parser_tokens():
    """Decimal strings on both sides of every case the parse kernel tells
    apart, each to be read exactly as ``float`` reads it."""
    powers = 10.0 ** np.arange(-323, 309)
    powers = np.concatenate([powers, np.nextafter(powers, 0),
                             np.nextafter(powers, np.inf)])
    # exact midpoints between neighbouring doubles with short decimals (at
    # 2^53 + 1, on both sides of powers of two, where the spacing doubles),
    # in several forms, and as 17 digits with the last one off by -1 and +1
    ties = []
    for x in (2.0 ** 52, 2.0 ** 53, 2.0 ** 54, 2.0 ** 55 + 16, 3.0 * 2 ** 53,
              2.0 ** 50 + 2 ** 10):
        for low in (np.nextafter(x, 0), x):
            tie = (Decimal(low) + Decimal(np.nextafter(low, np.inf))) / 2
            _, digits, exponent = tie.as_tuple()
            pad = max(17 - len(digits), 0)
            d = str(int("".join(map(str, digits))) * 10 ** pad)
            e = exponent - pad
            ties += [str(tie), f"{d}e{e}", f"{int(d) - 1}e{e}",
                     f"{int(d) + 1}e{e}", f"0.{d}E+{e + len(d)}",
                     f"{d[0]}.{d[1:]}e{e + len(d) - 1}"]
    rng = np.random.default_rng(11)
    long_digits = ["".join(map(str, rng.integers(0, 10, k)))
                   for k in range(18, 26) for _ in range(3)]
    long_digits += [d[:5] + "." + d[5:] for d in long_digits]
    forms = ["0", "-0", "0.000", "-0.0", "0.0000e7", "-0e-999", "1", "-1",
             "0.00012345678901234567", "-0.00099999999999999998",
             "1E5", "1e+5", "1e-5", "1E-05", "-1.5E+300", "12.5e-3", "7.e2",
             ".5", "-.25e1", "1e0", "1e000", "1e-0",
             "5e-324", "4.9406564584124654e-324", "2.4703282292062328e-324",
             "2.2250738585072014e-308", "2.2250738585072011e-308",
             "1.7976931348623157e+308", "1.7976931348623158e308",
             "1e-280", "1e280", "9.9999999999999996e-281", "1.0000000000000001e280",
             "1e-298", "1e-300", "123456789012345678e-298", "9e290", "9e291"]
    values = [f"{v:.17g}" for v in powers] + [f"{-v:.17g}" for v in powers[::7]]
    return {"powers-of-10": values, "ties": ties,
            "long-digits": long_digits, "forms": forms}


@pytest.mark.parametrize("name", sorted(_parser_tokens()))
def test_reader_matches_float_bit_for_bit(tmp_path, name):
    _assert_read_as_float(tmp_path, _parser_tokens()[name])


@pytest.mark.parametrize("final_newline", [True, False])
def test_reader_rows_across_read_blocks(tmp_path, monkeypatch, final_newline):
    from dexpou import _csvparse, pathio
    rng = np.random.default_rng(12)
    values = rng.standard_normal(30_000) * 10.0 ** rng.integers(-8, 8, 30_000)
    tokens = [f"{v:.17g}" for v in values]
    tokens[::5] = [f"{v:.{k}g}" for v, k in zip(values[::5],
                                                 rng.integers(1, 17, 6000))]
    text = _x_column_csv(tokens, final_newline)
    # rows straddle the first read blocks' ends
    starts = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
    for k in (1, 2, 3):
        assert k * _csvparse.READ_BYTES not in starts
    assert len(text) > 3 * _csvparse.READ_BYTES

    def no_row_parser(src):
        raise AssertionError("the kernel left the file to _parse_rows")

    monkeypatch.setattr(pathio, "_parse_rows", no_row_parser)
    _assert_read_as_float(tmp_path, tokens, final_newline)


def test_writer_bytes_match_fmt_across_blocks(tmp_path):
    from dexpou.pathio import _BLOCK_ROWS
    n = 3 * _BLOCK_ROWS + 7
    special = [-0.0, 5e-324, 1e308, -1e308, 1e-300, np.nan, np.inf, -np.inf]
    values = np.random.default_rng(3).standard_normal(n)
    for i, v in enumerate(special):
        # one copy of each near the start and one on each side of a boundary
        values[i] = values[_BLOCK_ROWS - 4 + i] = values[-1 - i] = v
    path = SamplePath(h=0.013, values=values)
    out = tmp_path / "p.csv"
    write_path_csv(path, out)
    expected = "t,x\n" + "".join(
        f"{fmt(t)},{fmt(x)}\n" for t, x in zip(path.times, path.values))
    assert out.read_bytes() == expected.encode()


def _csv_text(header, columns):
    """The writer's output built value by value from :func:`fmt`."""
    return ",".join(header) + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in zip(*columns))


def _assert_same_text(got, expected):
    # name the first differing line rather than diff megabytes of text
    for i, (a, b) in enumerate(zip(got.splitlines(), expected.splitlines())):
        assert a == b, f"line {i + 1}"
    assert got == expected


def _edge_values():
    """Values on both sides of every case the %.17g kernel tells apart."""
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    pow2 = 2.0 ** np.arange(-1074, 1024)
    pow10 = 10.0 ** np.arange(-323, 309)
    powers = np.concatenate([pow2, pow10])
    special = np.array([
        1e-4, np.nextafter(1e-4, 0), 1e17, 99999999999999984.0,
        9.9999999999999998e-20, 1e16, np.nextafter(1e16, 0),
        8000000000000001 / 4, 8000000000000003 / 4, 9007199254740991 / 4,
        0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-280, 1e280,
        np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf),
    ])
    return {
        "random-bits": bits[np.isfinite(bits)],
        "powers": np.concatenate([powers, np.nextafter(powers, 0),
                                  np.nextafter(powers, np.inf), -powers]),
        "special": np.concatenate([special, -special]),
        "normals": rng.standard_normal(5_000)
                   * 10.0 ** rng.integers(-30, 30, 5_000),
    }


@pytest.mark.parametrize("name", sorted(_edge_values()))
def test_writers_match_fmt_on_edge_values(tmp_path, name):
    values = _edge_values()[name]
    assert values.size > 0
    path = SamplePath(h=0.013, values=values)
    out = tmp_path / "p.csv"
    write_path_csv(path, out)
    _assert_same_text(out.read_text(),
                      _csv_text(("t", "x"), (path.times, path.values)))
    columns = (values, -values[::-1], np.roll(values, 7) / 3.0)
    _write_float_csv(out, ("a", "b", "c"), columns)
    _assert_same_text(out.read_text(), _csv_text(("a", "b", "c"), columns))


@pytest.mark.parametrize("h", [0.02, 0.001])
def test_time_column_matches_fmt(tmp_path, h):
    # t_j = j h: short decimals that are not exact in binary
    path = SamplePath(h=h, values=np.zeros(30_000))
    out = tmp_path / "p.csv"
    write_path_csv(path, out)
    _assert_same_text(out.read_text(),
                      _csv_text(("t", "x"), (path.times, path.values)))


def test_write_peak_memory_small_multiple_of_path(tmp_path, ref_params):
    # the text is formatted and written block by block, never held whole
    n = 200_000
    path = simulate_path(ref_params, 0.0, H_REF, n, seed=33)
    out = tmp_path / "p.csv"
    write_path_csv(path, out)  # lookup tables built before tracing
    tracemalloc.start()
    try:
        write_path_csv(path, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (2 * 8 * n)


def test_read_peak_memory_small_multiple_of_path(tmp_path, ref_params):
    n = 200_000
    out = tmp_path / "p.csv"
    write_path_csv(simulate_path(ref_params, 0.0, H_REF, n, seed=33), out)
    tracemalloc.start()
    try:
        read_path_csv(out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (2 * 8 * n)
