"""scripts/failing_replications.py finds a failure the benchmark met."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import failing_replications  # noqa: E402


def test_lists_a_known_failing_replication():
    # mc_short at seed 3005 fails its op 6444: the fitted atoms share a sign
    got = list(failing_replications.failures(3005, range(6442, 6446)))
    assert got == [(6444, "NonPositiveRate", "recover")]


def test_counts_on_its_last_line(capsys):
    assert failing_replications.main(["--seed", "3005", "--upto", "2"]) == 0
    assert capsys.readouterr().out == (
        "0 of 2 replications failed (seed 3005, n = 10000)\n")
