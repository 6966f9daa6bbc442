"""Byte-identity of CLI outputs against stored golden files.

The determinism tests compare two runs of the same code; these compare the
current code with the files in ``tests/golden/``, so a change meant to keep
the numbers (a refactor, a moved computation) must reproduce them bit for
bit.  ``RUNS`` lists the commands, run in order in one directory with
relative paths, so the provenance records in the outputs do not depend on
where the test runs.  The files were written with numpy 2.4.6 and Python
3.11.

To re-capture after a change that is meant to move an output, run
``PYTHONPATH=src python scripts/golden_drift.py --out DIR``, check the
drift it reports per field, copy the changed files from DIR into
``tests/golden/``, and record the drift in CHANGES.md."""

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

