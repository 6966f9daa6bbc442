"""Byte-identity of CLI outputs against files captured before a refactor.

The determinism tests compare two runs of the same code; these compare the
current code with stored outputs, so a change meant to keep the numbers
(a refactor, a moved computation) must reproduce them bit for bit.  The
files in ``tests/golden/`` were written by the CLI at the commit before the
single-pass moment refactor, with the commands below run in one directory
(numpy 2.4.6, scipy 1.17.1, Python 3.11).  Paths are relative, so the
provenance records in the outputs do not depend on where the test runs.

``estimate.json`` was re-captured when ``long_run_cov`` moved from inverse
FFTs of the cross-spectrum to the Bartlett spectral window: the rounding of
``covariance.A``, ``covariance.Sigma`` and ``intervals`` changed by at most
1.1e-13 relative, while every other field and every other file stayed
byte-identical.

``estimate.json`` and ``gcurve_input.csv`` were re-captured again when the
moments came to be summed in blocks with ``X^3`` as ``X^2 * X`` (no
``np.power``) and ``long_run_cov`` to use closed-form Fejer weights and one
Gram product.  ``scripts/golden_drift.py`` measured the largest change of
each field over its largest magnitude: moments and estimates <= 2.4e-16,
``covariance.A`` 1.0e-15, ``covariance.Sigma`` 5.4e-14, intervals
<= 9.8e-14, gcurve ``g`` 5.3e-16 and ``g_prime`` 9.1e-14; the other five
files stayed byte-identical.
"""

from pathlib import Path

from dexpou.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (argv, files it writes, expected standard output), run in this order
RUNS = [
    (["simulate", "--n", "2000", "--seed", "5", "--out", "path.csv"],
     ["path.csv", "path.meta.json"], "path.csv\n"),
    (["estimate", "path.csv", "--out", "estimate.json"],
     ["estimate.json"], ""),
    (["experiment", "--seeds", "3", "--n-values", "50,200",
      "--out", "experiment.csv"],
     ["experiment.csv", "experiment.meta.json"], "experiment.csv\n"),
    (["gcurve", "--f1", "0.25", "--f2", "0.5729", "--f3", "0.2496",
      "--grid", "101", "--out", "gcurve_f.csv"],
     ["gcurve_f.csv"], "sign_change_count=1\n"),
    (["gcurve", "--input", "path.csv", "--out", "gcurve_input.csv"],
     ["gcurve_input.csv"], "sign_change_count=1\n"),
]


def test_outputs_match_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, files, stdout in RUNS:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == stdout, argv
        for name in files:
            assert (tmp_path / name).read_bytes() == \
                (GOLDEN / name).read_bytes(), f"{name} differs from golden"


def test_golden_set_is_complete():
    written = {name for _, files, _ in RUNS for name in files}
    assert written == {p.name for p in GOLDEN.iterdir()}
